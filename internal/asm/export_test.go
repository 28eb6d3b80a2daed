package asm

// ErrorCases exposes the TestErrors sources to the external test
// package, which pins their diagnostics in errors.golden.
var ErrorCases = errorCases
