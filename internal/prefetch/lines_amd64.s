#include "textflag.h"

// func Lines(p unsafe.Pointer, n int)
TEXT ·Lines(SB), NOSPLIT, $0-16
	MOVQ p+0(FP), AX
	MOVQ n+8(FP), CX
loop:
	TESTQ CX, CX
	JLE   done
	PREFETCHT0 (AX)
	ADDQ $64, AX
	DECQ CX
	JMP  loop
done:
	RET
