// Package units is the one home of the packet sizes and rate
// conversions the layers share: admission's burst seed, the pacer's
// frames and voids, and the rates the figures and commands are given in.
package units

const (
	// MTUBytes is the IP MTU: the largest packet a VM sends, and the
	// packet that seeds packet-scale bursts in arrival curves.
	MTUBytes = 1500
	// FrameBytes is an MTU packet as an Ethernet frame: MTUBytes plus
	// the 18 B header and FCS.
	FrameBytes = MTUBytes + 18
	// MaxWireBytes is a full frame's wire footprint: FrameBytes plus the
	// 20 B preamble and inter-frame gap. The pacer caps a void here: one
	// such void costs fewer per-frame cycles than many minimum ones.
	MaxWireBytes = FrameBytes + 20
	// MinWireBytes is the smallest legal Ethernet frame (64 B) plus
	// preamble and inter-frame gap: 67.2 ns at 10 GbE (paper §4.3.1),
	// the pacer's void quantum.
	MinWireBytes = 64 + 20
)

// Gbps and Mbps are one gigabit and one megabit per second in the
// bytes per second every rate is kept in.
const (
	Gbps = 1e9 / 8
	Mbps = 1e6 / 8
)
