package cell

import (
	"strings"
	"sync"
)

// builtinText is the repository's 130nm-class library, standing in for the
// SkyWater 130 nm PDK used by the paper. Values are representative of a
// 130 nm process: areas of a few um^2, input capacitances of 1-5 fF,
// intrinsic delays of tens of ps, and drive resistances that make a
// fanout-of-4 inverter delay land near 100 ps.
//
// Truth tables are over pins with pin 0 as the least significant input:
//
//	NAND2  0x7      AOI21 !(p0·p1 + p2)       = 0x07
//	NOR2   0x1      OAI21 !((p0+p1)·p2)       = 0x1f
//	XOR2   0x6      MUX2  p2 ? p1 : p0        = 0xca
//	AND3   0x80     AOI22 !(p0·p1 + p2·p3)    = 0x0777
//	OR3    0xfe     OAI22 !((p0+p1)·(p2+p3))  = 0x111f
const builtinText = `
library generic130
wire_cap 0.9
output_load 4.0

# tie cells
cell TIE0_X1 inputs=0 func=0x0 area=1.6 cap=0 intrinsic=0 drive=0
cell TIE1_X1 inputs=0 func=0x1 area=1.6 cap=0 intrinsic=0 drive=0

# single-input
cell INV_X1 inputs=1 func=0x1 area=3.2 cap=1.2 intrinsic=10 drive=22
cell INV_X2 inputs=1 func=0x1 area=4.8 cap=2.3 intrinsic=11 drive=11
cell INV_X4 inputs=1 func=0x1 area=8.0 cap=4.5 intrinsic=12 drive=6
cell BUF_X1 inputs=1 func=0x2 area=5.6 cap=1.1 intrinsic=34 drive=18
cell BUF_X2 inputs=1 func=0x2 area=7.2 cap=1.5 intrinsic=37 drive=9

# two-input
cell NAND2_X1 inputs=2 func=0x7 area=4.8 cap=1.4 intrinsic=17 drive=26
cell NAND2_X2 inputs=2 func=0x7 area=7.2 cap=2.7 intrinsic=19 drive=13
cell NOR2_X1 inputs=2 func=0x1 area=4.8 cap=1.4 intrinsic=21 drive=30
cell NOR2_X2 inputs=2 func=0x1 area=7.2 cap=2.7 intrinsic=23 drive=15
cell AND2_X1 inputs=2 func=0x8 area=6.4 cap=1.3 intrinsic=37 drive=24
cell OR2_X1 inputs=2 func=0xe area=6.4 cap=1.3 intrinsic=41 drive=26
cell XOR2_X1 inputs=2 func=0x6 area=9.6 cap=2.6 intrinsic=53 drive=30
cell XNOR2_X1 inputs=2 func=0x9 area=9.6 cap=2.6 intrinsic=53 drive=30

# three-input
cell NAND3_X1 inputs=3 func=0x7f area=6.4 cap=1.5 intrinsic=25 drive=32
cell NOR3_X1 inputs=3 func=0x01 area=6.4 cap=1.5 intrinsic=33 drive=38
cell AND3_X1 inputs=3 func=0x80 area=8.0 cap=1.4 intrinsic=45 drive=26
cell OR3_X1 inputs=3 func=0xfe area=8.0 cap=1.4 intrinsic=51 drive=30
cell AOI21_X1 inputs=3 func=0x07 area=6.4 cap=1.6 intrinsic=27 drive=34
cell OAI21_X1 inputs=3 func=0x1f area=6.4 cap=1.6 intrinsic=29 drive=34
cell MUX2_X1 inputs=3 func=0xca area=11.2 cap=1.8 intrinsic=58 drive=32

# four-input
cell NAND4_X1 inputs=4 func=0x7fff area=8.0 cap=1.7 intrinsic=33 drive=40
cell NOR4_X1 inputs=4 func=0x0001 area=8.0 cap=1.7 intrinsic=45 drive=46
cell AND4_X1 inputs=4 func=0x8000 area=9.6 cap=1.5 intrinsic=53 drive=28
cell OR4_X1 inputs=4 func=0xfffe area=9.6 cap=1.5 intrinsic=61 drive=32
cell AOI22_X1 inputs=4 func=0x0777 area=8.0 cap=1.7 intrinsic=33 drive=38
cell OAI22_X1 inputs=4 func=0x111f area=8.0 cap=1.7 intrinsic=35 drive=38
`

// builtin parses builtinText once, on first use, however many
// goroutines make that first call together.
var builtin = sync.OnceValue(func() *Library {
	lib, err := ParseLibrary(strings.NewReader(builtinText))
	if err != nil {
		panic("cell: builtin library invalid: " + err.Error())
	}
	return lib
})

// Builtin returns the built-in 130nm-class library. Every call returns
// the same *Library, and concurrent first calls are safe. The result is
// shared; callers must treat it as read-only.
func Builtin() *Library { return builtin() }
