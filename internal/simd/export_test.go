package simd

// HaveParseF32 is ParseF32's extra CPU gate, for the package's external
// tests.
var HaveParseF32 = haveParseF32
