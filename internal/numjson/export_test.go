package numjson

// AppendFloat32Strconv gives the external benchmark the reference the
// tests use.
var AppendFloat32Strconv = appendFloat32Strconv
