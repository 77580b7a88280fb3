//go:build !linux

package main

// fsType is not implemented off Linux.
func fsType(string) string { return "unknown" }
