#include "textflag.h"

// Packed SSE kernels. Every product is t = x*v (MULPS/MULSS with the
// activation as the first operand) and every add is acc = acc + t
// (ADDPS/ADDSS with the accumulator first): one IEEE single multiply and
// one single add per multiply-accumulate, never fused, in the order the
// scalar loops use. MXCSR is left as Go sets it (round to nearest, no
// flush-to-zero), so a lane of a packed operation returns the bits the
// scalar one would.

// A row's entries are compacted, a chunk of at most CHUNK at a time, into
// two arrays on the stack: the activation rows of the present ones at
// 0(SP) and their weights at VALS(SP). Compaction stores every entry and
// advances its cursor only past a present one, so a nil row costs no
// branch, and the tiles then walk the compacted entries with no checks
// left to make. When nc%8 >= 4 the 4-column tile at nc&^7 rides along
// with the compaction, so a narrow batch walks its entries once: a nil
// entry there multiplies four -0s by +0 and adds the -0, which leaves
// every accumulator but a signalling NaN as it was, and an accumulator no
// present entry touched is not stored.
#define CHUNK 128
#define VALS 1024
#define ROWS 1536 // the rows left to walk
#define RP 1544   // &rowPtr[r]
#define MACS 1552 // the multiply-add count
#define NEGZ 1560 // four -0s, the last of the 1576-byte frame

// MAC adds v*x into one accumulator: x is the four floats at off(R14)(R15*4),
// v is broadcast in X8.
#define MAC(off, acc) \
	MOVUPS off(R14)(R15*4), X9; \
	MULPS  X8, X9; \
	ADDPS  X9, acc

// LOADX loads entry BX's activation row into R14 and its length into R11,
// or jumps to fault when its column id is outside x.
#define LOADX \
	MOVLQSX (SI)(BX*4), R11; \
	CMPQ    R11, x_len+80(FP); \
	JAE     fault; \
	LEAQ    (R11)(R11*2), R11; \
	MOVQ    (R10)(R11*8), R14; \
	MOVQ    8(R10)(R11*8), R11

// ENTRY loads compacted entry R11: its activation row into R14, its weight
// into all four lanes of X8.
#define ENTRY \
	MOVQ   (SP)(R11*8), R14; \
	MOVSS  VALS(SP)(R11*4), X8; \
	SHUFPS $0x00, X8, X8

// func mulRowsSSE(rowPtr, colIdx []int32, val []float32, x [][]float32, z []float32, nc int) (macs int64, ok bool)
//
// Registers: AX NEGZ - 4*(nc&^7), a nil entry's row in the ridden tile;
// BX the next entry to compact; CX the row's end entry; DX a weight's
// bits; SI colIdx; DI val; R8 the chunk's end entry; R9 the compacted
// count; R10 x; R11 the compacted entry; R12 &z[r][0]; R13 nc; R14 an
// activation row; R15 the tile's first column.
TEXT ·mulRowsSSE(SB), $1576-137
	MOVQ  rowPtr_base+0(FP), R8
	MOVQ  R8, RP(SP)
	MOVQ  rowPtr_len+8(FP), R9
	MOVQ  colIdx_base+24(FP), SI
	MOVQ  val_base+48(FP), DI
	MOVQ  x_base+72(FP), R10
	MOVQ  z_base+96(FP), R12
	MOVQ  nc+120(FP), R13
	MOVQ  $0, MACS(SP)
	DECQ  R9
	JLE   done
	MOVQ  R9, ROWS(SP)
	TESTQ R13, R13
	JLE   done
	MOVL  $0x80000000, NEGZ(SP)
	MOVL  $0x80000000, NEGZ+4(SP)
	MOVL  $0x80000000, NEGZ+8(SP)
	MOVL  $0x80000000, NEGZ+12(SP)
	MOVQ  R13, R11
	ANDQ  $~7, R11
	SHLQ  $2, R11
	LEAQ  NEGZ(SP), AX
	SUBQ  R11, AX

row:
	MOVQ    RP(SP), R11
	MOVLQSX (R11), BX
	MOVLQSX 4(R11), CX
	CMPQ    BX, CX
	JGT     fault

chunk:
	CMPQ    BX, CX
	JGE     nextrow
	LEAQ    CHUNK(BX), R8
	CMPQ    R8, CX
	CMOVQGT CX, R8
	XORQ    R9, R9
	TESTQ   $4, R13
	JNZ     ride

compact:
	LOADX
	MOVQ    R14, (SP)(R9*8)
	MOVSS   (DI)(BX*4), X8
	MOVSS   X8, VALS(SP)(R9*4)
	CMPQ    R14, $1    // carry set when the row is nil
	CMOVQCS R13, R11   // a nil row has no length to check
	SBBQ    $-1, R9    // count a present row
	CMPQ    R11, R13
	JLT     fault
	INCQ    BX
	CMPQ    BX, R8
	JLT     compact
	TESTQ   R9, R9
	JZ      chunk      // nothing present: z stays as it is
	JMP     tiles

ride:
	MOVQ   R13, R15
	ANDQ   $~7, R15
	MOVUPS (R12)(R15*4), X0

rideloop:
	LOADX
	MOVL    (DI)(BX*4), DX
	MOVQ    R14, (SP)(R9*8)
	MOVL    DX, VALS(SP)(R9*4)
	CMPQ    R14, $1
	CMOVLCS R14, DX  // a nil entry's weight: +0
	CMOVQCS AX, R14  // and its row: -0s
	CMOVQCS R13, R11
	SBBQ    $-1, R9
	CMPQ    R11, R13
	JLT     fault
	MOVL    DX, X8
	SHUFPS  $0x00, X8, X8
	MAC(0, X0)
	INCQ    BX
	CMPQ    BX, R8
	JLT     rideloop
	TESTQ   R9, R9
	JZ      chunk
	MOVUPS  X0, (R12)(R15*4)

tiles:
	MOVQ  R9, R11
	IMULQ R13, R11
	ADDQ  R11, MACS(SP)
	XORQ  R15, R15

tile32:
	LEAQ   32(R15), R11
	CMPQ   R11, R13
	JGT    tile16
	MOVUPS 0(R12)(R15*4), X0
	MOVUPS 16(R12)(R15*4), X1
	MOVUPS 32(R12)(R15*4), X2
	MOVUPS 48(R12)(R15*4), X3
	MOVUPS 64(R12)(R15*4), X4
	MOVUPS 80(R12)(R15*4), X5
	MOVUPS 96(R12)(R15*4), X6
	MOVUPS 112(R12)(R15*4), X7
	XORQ   R11, R11

loop32:
	ENTRY
	MAC(0, X0)
	MAC(16, X1)
	MAC(32, X2)
	MAC(48, X3)
	MAC(64, X4)
	MAC(80, X5)
	MAC(96, X6)
	MAC(112, X7)
	INCQ R11
	CMPQ R11, R9
	JLT  loop32
	MOVUPS X0, 0(R12)(R15*4)
	MOVUPS X1, 16(R12)(R15*4)
	MOVUPS X2, 32(R12)(R15*4)
	MOVUPS X3, 48(R12)(R15*4)
	MOVUPS X4, 64(R12)(R15*4)
	MOVUPS X5, 80(R12)(R15*4)
	MOVUPS X6, 96(R12)(R15*4)
	MOVUPS X7, 112(R12)(R15*4)
	ADDQ   $32, R15
	JMP    tile32

tile16:
	LEAQ   16(R15), R11
	CMPQ   R11, R13
	JGT    tile8
	MOVUPS 0(R12)(R15*4), X0
	MOVUPS 16(R12)(R15*4), X1
	MOVUPS 32(R12)(R15*4), X2
	MOVUPS 48(R12)(R15*4), X3
	XORQ   R11, R11

loop16:
	ENTRY
	MAC(0, X0)
	MAC(16, X1)
	MAC(32, X2)
	MAC(48, X3)
	INCQ R11
	CMPQ R11, R9
	JLT  loop16
	MOVUPS X0, 0(R12)(R15*4)
	MOVUPS X1, 16(R12)(R15*4)
	MOVUPS X2, 32(R12)(R15*4)
	MOVUPS X3, 48(R12)(R15*4)
	ADDQ   $16, R15

tile8:
	LEAQ   8(R15), R11
	CMPQ   R11, R13
	JGT    tile4
	MOVUPS 0(R12)(R15*4), X0
	MOVUPS 16(R12)(R15*4), X1
	XORQ   R11, R11

loop8:
	ENTRY
	MAC(0, X0)
	MAC(16, X1)
	INCQ R11
	CMPQ R11, R9
	JLT  loop8
	MOVUPS X0, 0(R12)(R15*4)
	MOVUPS X1, 16(R12)(R15*4)
	ADDQ   $8, R15

	// The 4-column tile rode along with the compaction.
tile4:
	LEAQ 4(R15), R11
	CMPQ R11, R13
	JGT  tail
	ADDQ $4, R15

	// The last nc%4 columns, one at a time.
tail:
	CMPQ  R15, R13
	JGE   chunk
	MOVSS (R12)(R15*4), X0
	XORQ  R11, R11

loop1:
	MOVQ  (SP)(R11*8), R14
	MOVSS (R14)(R15*4), X9
	MULSS VALS(SP)(R11*4), X9
	ADDSS X9, X0
	INCQ  R11
	CMPQ  R11, R9
	JLT   loop1
	MOVSS X0, (R12)(R15*4)
	INCQ  R15
	JMP   tail

nextrow:
	LEAQ (R12)(R13*4), R12
	ADDQ $4, RP(SP)
	DECQ ROWS(SP)
	JNZ  row

done:
	MOVQ MACS(SP), R11
	MOVQ R11, macs+128(FP)
	MOVB $1, ok+136(FP)
	RET

fault:
	MOVQ MACS(SP), R11
	MOVQ R11, macs+128(FP)
	MOVB $0, ok+136(FP)
	RET

// MAC4 adds v*x into one accumulator for mulAdd4SSE and mulAdd1SSE: x is
// the four floats at off(xp)(SI*4), v is broadcast in vr.
#define MAC4(off, xp, vr, acc) \
	MOVUPS off(xp)(SI*4), X8; \
	MULPS  vr, X8; \
	ADDPS  X8, acc

// MAC1 is MAC4 for the one float at (xp)(SI*4).
#define MAC1(xp, vr, acc) \
	MOVSS (xp)(SI*4), X8; \
	MULSS vr, X8; \
	ADDSS X8, acc

// func mulAdd4SSE(z, x0, x1, x2, x3 []float32, v0, v1, v2, v3 float32)
TEXT ·mulAdd4SSE(SB), NOSPLIT, $0-136
	MOVQ   z_base+0(FP), DI
	MOVQ   z_len+8(FP), CX
	MOVQ   x0_base+24(FP), R8
	MOVQ   x1_base+48(FP), R9
	MOVQ   x2_base+72(FP), R10
	MOVQ   x3_base+96(FP), R11
	MOVSS  v0+120(FP), X12
	SHUFPS $0x00, X12, X12
	MOVSS  v1+124(FP), X13
	SHUFPS $0x00, X13, X13
	MOVSS  v2+128(FP), X14
	SHUFPS $0x00, X14, X14
	MOVSS  v3+132(FP), X15
	SHUFPS $0x00, X15, X15
	XORQ   SI, SI
	LEAQ   -8(CX), DX
	CMPQ   SI, DX
	JGT    quad4

loop4x8:
	MOVUPS (DI)(SI*4), X0
	MOVUPS 16(DI)(SI*4), X1
	MAC4(0, R8, X12, X0)
	MAC4(16, R8, X12, X1)
	MAC4(0, R9, X13, X0)
	MAC4(16, R9, X13, X1)
	MAC4(0, R10, X14, X0)
	MAC4(16, R10, X14, X1)
	MAC4(0, R11, X15, X0)
	MAC4(16, R11, X15, X1)
	MOVUPS X0, (DI)(SI*4)
	MOVUPS X1, 16(DI)(SI*4)
	ADDQ   $8, SI
	CMPQ   SI, DX
	JLE    loop4x8

quad4:
	LEAQ   4(SI), DX
	CMPQ   DX, CX
	JGT    single4
	MOVUPS (DI)(SI*4), X0
	MAC4(0, R8, X12, X0)
	MAC4(0, R9, X13, X0)
	MAC4(0, R10, X14, X0)
	MAC4(0, R11, X15, X0)
	MOVUPS X0, (DI)(SI*4)
	ADDQ   $4, SI

single4:
	CMPQ  SI, CX
	JGE   done4
	MOVSS (DI)(SI*4), X0
	MAC1(R8, X12, X0)
	MAC1(R9, X13, X0)
	MAC1(R10, X14, X0)
	MAC1(R11, X15, X0)
	MOVSS X0, (DI)(SI*4)
	INCQ  SI
	JMP   single4

done4:
	RET

// func mulAdd1SSE(z, x []float32, v float32)
TEXT ·mulAdd1SSE(SB), NOSPLIT, $0-52
	MOVQ   z_base+0(FP), DI
	MOVQ   z_len+8(FP), CX
	MOVQ   x_base+24(FP), R8
	MOVSS  v+48(FP), X12
	SHUFPS $0x00, X12, X12
	XORQ   SI, SI
	LEAQ   -8(CX), DX
	CMPQ   SI, DX
	JGT    quad1

loop1x8:
	MOVUPS (DI)(SI*4), X0
	MOVUPS 16(DI)(SI*4), X1
	MAC4(0, R8, X12, X0)
	MAC4(16, R8, X12, X1)
	MOVUPS X0, (DI)(SI*4)
	MOVUPS X1, 16(DI)(SI*4)
	ADDQ   $8, SI
	CMPQ   SI, DX
	JLE    loop1x8

quad1:
	LEAQ   4(SI), DX
	CMPQ   DX, CX
	JGT    single1
	MOVUPS (DI)(SI*4), X0
	MAC4(0, R8, X12, X0)
	MOVUPS X0, (DI)(SI*4)
	ADDQ   $4, SI

single1:
	CMPQ  SI, CX
	JGE   done1
	MOVSS (DI)(SI*4), X0
	MAC1(R8, X12, X0)
	MOVSS X0, (DI)(SI*4)
	INCQ  SI
	JMP   single1

done1:
	RET
