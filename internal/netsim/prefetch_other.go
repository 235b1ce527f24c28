//go:build !amd64

package netsim

// prefetchPacket is a no-op where there is no prefetch instruction
// wired up; the call inlines away.
func prefetchPacket(*Packet) {}
