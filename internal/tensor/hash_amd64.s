#include "textflag.h"

// Lane offsets 0..15 for the two 8-lane halves of one 16-value block.
DATA hashLanes<>+0x00(SB)/8, $0
DATA hashLanes<>+0x08(SB)/8, $1
DATA hashLanes<>+0x10(SB)/8, $2
DATA hashLanes<>+0x18(SB)/8, $3
DATA hashLanes<>+0x20(SB)/8, $4
DATA hashLanes<>+0x28(SB)/8, $5
DATA hashLanes<>+0x30(SB)/8, $6
DATA hashLanes<>+0x38(SB)/8, $7
DATA hashLanes<>+0x40(SB)/8, $8
DATA hashLanes<>+0x48(SB)/8, $9
DATA hashLanes<>+0x50(SB)/8, $10
DATA hashLanes<>+0x58(SB)/8, $11
DATA hashLanes<>+0x60(SB)/8, $12
DATA hashLanes<>+0x68(SB)/8, $13
DATA hashLanes<>+0x70(SB)/8, $14
DATA hashLanes<>+0x78(SB)/8, $15
GLOBL hashLanes<>(SB), RODATA|NOPTR, $128

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET

// HASH16 computes the sixteen floats for keys Z0 (lanes 0-7) and Z1
// (lanes 8-15) into Z2, step for step as HashFloatFrom and the scale
// multiply do in Go: Mix64(prefix ^ key) on 64-bit lanes (VPMULLQ is the
// wrapping 64-bit multiply), the top 24 bits narrowed to 32-bit lanes,
// centred, converted (exact for a 24-bit integer) and multiplied by 2^-23
// (exact) and then by scale (the one rounding). Mix64's last step,
// x ^ x>>31, leaves bits 40-63 as they are, so the >>40 follows the second
// multiply directly.
#define HASH16 \
	VPXORQ  Z16, Z0, Z2 \
	VPXORQ  Z16, Z1, Z3 \
	VPADDQ  Z19, Z2, Z2 \
	VPADDQ  Z19, Z3, Z3 \
	VPSRLQ  $30, Z2, Z4 \
	VPSRLQ  $30, Z3, Z5 \
	VPXORQ  Z4, Z2, Z2 \
	VPXORQ  Z5, Z3, Z3 \
	VPMULLQ Z20, Z2, Z2 \
	VPMULLQ Z20, Z3, Z3 \
	VPSRLQ  $27, Z2, Z4 \
	VPSRLQ  $27, Z3, Z5 \
	VPXORQ  Z4, Z2, Z2 \
	VPXORQ  Z5, Z3, Z3 \
	VPMULLQ Z21, Z2, Z2 \
	VPMULLQ Z21, Z3, Z3 \
	VPSRLQ  $40, Z2, Z2 \
	VPSRLQ  $40, Z3, Z3 \
	VPMOVQD Z2, Y2 \
	VPMOVQD Z3, Y3 \
	VINSERTI64X4 $1, Y3, Z2, Z2 \
	VPSUBD  Z22, Z2, Z2 \
	VCVTDQ2PS Z2, Z2 \
	VMULPS  Z23, Z2, Z2 \
	VMULPS  Z24, Z2, Z2

// func hashFloatsAVX512(dst unsafe.Pointer, n int, prefix, from uint64, scale float32)
TEXT ·hashFloatsAVX512(SB), NOSPLIT, $0-36
	MOVQ dst+0(FP), DI
	MOVQ n+8(FP), CX
	VPBROADCASTQ prefix+16(FP), Z16
	VPBROADCASTQ from+24(FP), Z17
	VPADDQ hashLanes<>+0x00(SB), Z17, Z0
	VPADDQ hashLanes<>+0x40(SB), Z17, Z1
	MOVQ $16, AX
	VPBROADCASTQ AX, Z18
	MOVQ $0x9e3779b97f4a7c15, AX
	VPBROADCASTQ AX, Z19
	MOVQ $0xbf58476d1ce4e5b9, AX
	VPBROADCASTQ AX, Z20
	MOVQ $0x94d049bb133111eb, AX
	VPBROADCASTQ AX, Z21
	MOVL $0x00800000, AX // 1<<23
	VPBROADCASTD AX, Z22
	MOVL $0x34000000, AX // float32 2^-23
	VPBROADCASTD AX, Z23
	VBROADCASTSS scale+32(FP), Z24

block:
	CMPQ CX, $16
	JLT  tail
	HASH16
	VMOVUPS Z2, (DI)
	ADDQ    $64, DI
	SUBQ    $16, CX
	VPADDQ  Z18, Z0, Z0
	VPADDQ  Z18, Z1, Z1
	JMP     block

tail:
	TESTQ CX, CX
	JZ    done
	MOVL  $1, AX
	SHLL  CX, AX
	DECL  AX
	KMOVW AX, K1
	HASH16
	VMOVUPS Z2, K1, (DI)

done:
	VZEROUPPER
	RET
