package netsim

// prefetchPacket hints the CPU to pull p's cache lines in before the
// engine touches them. It changes no state; see prefetch_amd64.s.
//
//go:noescape
func prefetchPacket(p *Packet)
