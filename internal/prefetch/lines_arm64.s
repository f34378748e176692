#include "textflag.h"

// func Lines(p unsafe.Pointer, n int)
TEXT ·Lines(SB), NOSPLIT, $0-16
	MOVD p+0(FP), R0
	MOVD n+8(FP), R1
loop:
	CMP  $0, R1
	BLE  done
	PRFM (R0), PLDL1KEEP
	ADD  $64, R0
	SUB  $1, R1
	B    loop
done:
	RET
