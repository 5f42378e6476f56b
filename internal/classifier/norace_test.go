//go:build !race

package classifier

func init() { pooledAllocPins = true }
