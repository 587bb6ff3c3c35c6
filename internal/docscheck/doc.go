// Package docscheck keeps the documentation honest: its tests verify that
// every relative markdown link in README/ROADMAP/docs resolves to a real
// file, that every package in the module carries a package comment, that
// no production code reads an environment variable, and that every exported
// field of an internal Options struct is set by some production caller
// outside its package.
// Running inside `go test ./...` makes doc rot a tier-1 build failure, on
// any machine, with no external tooling.
package docscheck
