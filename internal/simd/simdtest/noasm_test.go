//go:build !amd64 || noasm

package simdtest_test

const asmBuild = false
