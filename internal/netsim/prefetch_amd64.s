#include "textflag.h"

// func prefetchPacket(p *Packet): p, p+64 and p+128 are every cache line
// a 136-byte Packet spans at any 8-byte-aligned line offset (0 to 56).
TEXT ·prefetchPacket(SB), NOSPLIT, $0-8
	MOVQ	p+0(FP), AX
	PREFETCHT0	(AX)
	PREFETCHT0	64(AX)
	PREFETCHT0	128(AX)
	RET
