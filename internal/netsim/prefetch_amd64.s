#include "textflag.h"

// func prefetchPacket(p *Packet): p, p+64 and p+128 are every cache line
// a 160-byte Packet spans at the arena's 0- or 32-byte line offsets.
TEXT ·prefetchPacket(SB), NOSPLIT, $0-8
	MOVQ	p+0(FP), AX
	PREFETCHT0	(AX)
	PREFETCHT0	64(AX)
	PREFETCHT0	128(AX)
	RET
