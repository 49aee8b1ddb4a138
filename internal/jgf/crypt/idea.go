// Package crypt reproduces the JGF Crypt benchmark: IDEA (International
// Data Encryption Algorithm) encryption and decryption over a byte array.
// The kernel is embarrassingly parallel over 8-byte blocks, which the
// paper parallelises with a parallel region and a block-scheduled for
// method (Table 2: "PR, FOR (block)").
package crypt

import (
	"fmt"

	"aomplib/internal/core"
	"aomplib/internal/jgf/harness"
	"aomplib/internal/rng"
	"aomplib/internal/sched"
	"aomplib/internal/weaver"
)

// mul is IDEA multiplication modulo 2^16+1 with 0 representing 2^16.
func mul(a, b uint32) uint16 {
	if a == 0 {
		return uint16(1 - b)
	}
	if b == 0 {
		return uint16(1 - a)
	}
	p := a * b
	lo, hi := p&0xffff, p>>16
	if lo >= hi {
		return uint16(lo - hi)
	}
	return uint16(lo - hi + 1)
}

// mulInv returns the multiplicative inverse of x modulo 2^16+1 (with the
// IDEA zero convention), via the extended Euclidean algorithm.
func mulInv(x uint16) uint16 {
	if x <= 1 {
		return x // 0 and 1 are self-inverse under the convention
	}
	t1 := uint32(0x10001) / uint32(x)
	y := uint32(0x10001) % uint32(x)
	if y == 1 {
		return uint16((1 - t1) & 0xffff)
	}
	t0 := uint32(1)
	xx := uint32(x)
	for y != 1 {
		q := xx / y
		xx %= y
		t0 += q * t1
		if xx == 1 {
			return uint16(t0)
		}
		q = y / xx
		y %= xx
		t1 += q * t0
	}
	return uint16((1 - t1) & 0xffff)
}

// calcEncryptKey expands a 128-bit user key (8×16-bit) into the 52
// encryption subkeys via the standard 25-bit rotation schedule.
func calcEncryptKey(userKey [8]uint16) [52]uint16 {
	var z [52]uint16
	for i := 0; i < 8; i++ {
		z[i] = userKey[i]
	}
	for i := 8; i < 52; i++ {
		switch {
		case i&7 < 6:
			z[i] = (z[i-7]&127)<<9 | z[i-6]>>7
		case i&7 == 6:
			z[i] = (z[i-7]&127)<<9 | z[i-14]>>7
		default:
			z[i] = (z[i-15]&127)<<9 | z[i-14]>>7
		}
	}
	return z
}

// calcDecryptKey derives the 52 decryption subkeys from the encryption
// schedule: inverses of the transform keys with the two middle add-keys
// swapped in the 7 interior rounds (because the cipher swaps x2/x3).
func calcDecryptKey(z [52]uint16) [52]uint16 {
	var dk [52]uint16
	p := 52
	put := func(v uint16) { p--; dk[p] = v }

	// Inverse of the output transform becomes the first round's keys.
	t1 := mulInv(z[0])
	t2 := uint16(-int32(z[1]) & 0xffff)
	t3 := uint16(-int32(z[2]) & 0xffff)
	t4 := mulInv(z[3])
	put(t4)
	put(t3)
	put(t2)
	put(t1)
	k := 4
	for r := 1; r < 8; r++ {
		ma1, ma2 := z[k], z[k+1]
		k += 2
		put(ma2)
		put(ma1)
		t1 = mulInv(z[k])
		t2 = uint16(-int32(z[k+1]) & 0xffff)
		t3 = uint16(-int32(z[k+2]) & 0xffff)
		t4 = mulInv(z[k+3])
		k += 4
		put(t4)
		put(t2) // swapped with t3: interior rounds
		put(t3)
		put(t1)
	}
	ma1, ma2 := z[k], z[k+1]
	k += 2
	put(ma2)
	put(ma1)
	t1 = mulInv(z[k])
	t2 = uint16(-int32(z[k+1]) & 0xffff)
	t3 = uint16(-int32(z[k+2]) & 0xffff)
	t4 = mulInv(z[k+3])
	put(t4)
	put(t3) // no swap: these invert the first round
	put(t2)
	put(t1)
	return dk
}

// cipherBlock runs the 8.5-round IDEA cipher on one 8-byte block.
func cipherBlock(src, dst []byte, z *[52]uint16) {
	x1 := uint32(src[0]) | uint32(src[1])<<8
	x2 := uint32(src[2]) | uint32(src[3])<<8
	x3 := uint32(src[4]) | uint32(src[5])<<8
	x4 := uint32(src[6]) | uint32(src[7])<<8
	k := 0
	for r := 0; r < 8; r++ {
		x1 = uint32(mul(x1, uint32(z[k])))
		x2 = (x2 + uint32(z[k+1])) & 0xffff
		x3 = (x3 + uint32(z[k+2])) & 0xffff
		x4 = uint32(mul(x4, uint32(z[k+3])))
		t2 := x1 ^ x3
		t2 = uint32(mul(t2, uint32(z[k+4])))
		t1 := (t2 + (x2 ^ x4)) & 0xffff
		t1 = uint32(mul(t1, uint32(z[k+5])))
		t2 = (t1 + t2) & 0xffff
		x1 ^= t1
		x4 ^= t2
		t2 ^= x2
		x2 = x3 ^ t1
		x3 = t2
		k += 6
	}
	y1 := mul(x1, uint32(z[48]))
	y2 := uint16((x3 + uint32(z[49])) & 0xffff) // note x2/x3 swap
	y3 := uint16((x2 + uint32(z[50])) & 0xffff)
	y4 := mul(x4, uint32(z[51]))
	dst[0], dst[1] = byte(y1), byte(y1>>8)
	dst[2], dst[3] = byte(y2), byte(y2>>8)
	dst[4], dst[5] = byte(y3), byte(y3>>8)
	dst[6], dst[7] = byte(y4), byte(y4>>8)
}

// Params sizes the benchmark (bytes; rounded down to whole blocks).
type Params struct {
	// N is the plaintext length in bytes.
	N int
	// Schedule is the @For schedule of the Aomp version; the zero value is
	// sched.StaticBlock, the kernel's block distribution.
	Schedule sched.Kind
}

// JGF problem sizes.
var (
	SizeA = Params{N: 3_000_000}
	SizeB = Params{N: 20_000_000}
	// SizeTest keeps unit tests fast.
	SizeTest = Params{N: 8 * 1024}
)

// Crypt is the base program: plaintext, ciphertext, decrypted text and the
// two key schedules.
type Crypt struct {
	nblocks int
	plain1  []byte
	crypt1  []byte
	plain2  []byte
	z, dk   [52]uint16
}

// New builds the base program with deterministic random plaintext and key.
func New(p Params) *Crypt {
	nblocks := p.N / 8
	c := &Crypt{
		nblocks: nblocks,
		plain1:  make([]byte, nblocks*8),
		crypt1:  make([]byte, nblocks*8),
		plain2:  make([]byte, nblocks*8),
	}
	r := rng.New(136506717)
	var userKey [8]uint16
	for i := range userKey {
		userKey[i] = uint16(r.NextIntN(65536))
	}
	for i := range c.plain1 {
		c.plain1[i] = byte(r.NextIntN(256))
	}
	c.z = calcEncryptKey(userKey)
	c.dk = calcDecryptKey(c.z)
	return c
}

// EncryptBlocks is the for method over 8-byte block indices [lo,hi).
func (c *Crypt) EncryptBlocks(lo, hi, step int) {
	for b := lo; b < hi; b += step {
		o := b * 8
		cipherBlock(c.plain1[o:o+8], c.crypt1[o:o+8], &c.z)
	}
}

// DecryptBlocks is the for method decrypting block indices [lo,hi).
func (c *Crypt) DecryptBlocks(lo, hi, step int) {
	for b := lo; b < hi; b += step {
		o := b * 8
		cipherBlock(c.crypt1[o:o+8], c.plain2[o:o+8], &c.dk)
	}
}

func (c *Crypt) validate() error {
	for i := range c.plain1 {
		if c.plain1[i] != c.plain2[i] {
			return fmt.Errorf("crypt: decrypt(encrypt(p)) differs from p at byte %d", i)
		}
	}
	// Guard against the identity cipher masking a broken key schedule.
	same := 0
	for i := range c.plain1 {
		if c.plain1[i] == c.crypt1[i] {
			same++
		}
	}
	if same == len(c.plain1) {
		return fmt.Errorf("crypt: ciphertext equals plaintext")
	}
	return nil
}

// ------------------------------------------------------------- versions --

type seqInstance struct {
	p Params
	c *Crypt
}

// NewSeq returns the sequential version.
func NewSeq(p Params) harness.Instance { return &seqInstance{p: p} }

func (in *seqInstance) Setup() { in.c = New(in.p) }
func (in *seqInstance) Kernel() {
	in.c.EncryptBlocks(0, in.c.nblocks, 1)
	in.c.DecryptBlocks(0, in.c.nblocks, 1)
}
func (in *seqInstance) Validate() error { return in.c.validate() }

type mtInstance struct {
	p       Params
	threads int
	c       *Crypt
}

// NewMT returns the hand-threaded baseline: explicit goroutines, block
// distribution over cipher blocks, join between the two phases.
func NewMT(p Params, threads int) harness.Instance {
	return &mtInstance{p: p, threads: threads}
}

func (in *mtInstance) Setup() { in.c = New(in.p) }

func (in *mtInstance) phase(f func(lo, hi, step int)) {
	n := in.c.nblocks
	done := make(chan struct{}, in.threads)
	for id := 0; id < in.threads; id++ {
		go func(id int) {
			per, rem := n/in.threads, n%in.threads
			lo := id*per + min(id, rem)
			hi := lo + per
			if id < rem {
				hi++
			}
			f(lo, hi, 1)
			done <- struct{}{}
		}(id)
	}
	for id := 0; id < in.threads; id++ {
		<-done
	}
}

func (in *mtInstance) Kernel() {
	in.phase(in.c.EncryptBlocks)
	in.phase(in.c.DecryptBlocks)
}
func (in *mtInstance) Validate() error { return in.c.validate() }

type aompInstance struct {
	p       Params
	threads int
	c       *Crypt
	run     func()
	prog    *weaver.Program
}

// NewAomp returns the AOmpLib version: a parallel region over the kernel,
// block-scheduled for methods for both phases, and a barrier between them
// (decryption reads the ciphertext all workers produce).
func NewAomp(p Params, threads int) harness.Instance {
	return &aompInstance{p: p, threads: threads}
}

func (in *aompInstance) Setup() {
	in.c = New(in.p)
	in.prog = weaver.NewProgram("Crypt")
	prog := in.prog
	cls := prog.Class("Crypt")
	enc := cls.ForProc("encryptBlocks", in.c.EncryptBlocks)
	dec := cls.ForProc("decryptBlocks", in.c.DecryptBlocks)
	in.run = cls.Proc("run", func() {
		enc(0, in.c.nblocks, 1)
		dec(0, in.c.nblocks, 1)
	})
	prog.Use(core.ParallelRegion("call(* Crypt.run(..))").Threads(in.threads))
	prog.Use(core.ForShare("call(* Crypt.encryptBlocks(..)) || call(* Crypt.decryptBlocks(..))").Schedule(in.p.Schedule))
	prog.Use(core.BarrierAfterPoint("call(* Crypt.encryptBlocks(..))"))
	prog.MustWeave()
}

func (in *aompInstance) Kernel()         { in.run() }
func (in *aompInstance) Validate() error { return in.c.validate() }

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Program exposes the woven program to the Table 2 tooling and jgfbench.
func (in *aompInstance) Program() *weaver.Program { return in.prog }
