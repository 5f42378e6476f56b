//go:build !race

package exboxcore

func init() { pooledAllocPins = true }
