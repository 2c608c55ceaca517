package mipsx

// The basic-block translation engine (the execution half; block discovery
// and translation live in blocks.go).
//
// RunTranslated executes translated blocks: one counter increment and two
// additions charge a whole block body, the step loop dispatches fused
// superinstructions, and the terminator resolves the branch, runs both
// delay slots through the same dispatch loop as block bodies (they are
// precompiled into dispatch steps at translation time) and follows a chain
// pointer to the successor block, so steady-state control flow touches
// neither the PC-keyed block table nor any per-instruction statistics.
// Destination register 0 is remapped at translation time to a scratch slot
// past the architectural file, so the dispatch loop never restores the
// hardwired zero. Per-category, per-opcode and stall statistics are
// reconstructed on exit from per-block execution counters and the blocks'
// static accounting, exactly as the fused loop reconstructs them from
// per-instruction counters — the two engines produce bit-identical Stats,
// registers, memory, output and faults (PC and cycle included), which the
// differential tests assert.
//
// Rare events leave the fast path without breaking that identity:
//   - A fault inside a body backs out the block's static accounting and
//     re-charges the executed prefix instruction by instruction
//     (accountPrefix), so the fault carries the same cycle count the
//     fused loop would report.
//   - A fault inside a delay slot reproduces the fused loop's state at
//     that point: branch and executed slots counted, pending-branch
//     pipeline restored.
//   - LDC/STC check failures and ADDTC/SUBTC traps back out the body
//     accounting the same way, then redirect to the software handler.
//   - Control transfers whose delay slots are too subtle to run inline
//     (nested control, checked accesses, SYS — or slots past the end of
//     the stream) are delegated to the reference stepper (termInterp).
//
// The engine transparently falls back to the fused loop when an Observer
// or Ctx is attached (tracing and cancellation keep working) or when the
// machine stops mid-pipeline (pending branch or interlock from a prior
// Step), so it never needs to model resumed pipeline state.

import (
	"math"
	"strconv"
	"sync/atomic"
)

// RunTranslated executes until HALT, a fault, a Lisp runtime error, or
// MaxCycles, using the translated-block cache shared across all machines
// running the same Program.
func (m *Machine) RunTranslated() error {
	if m.Obs != nil || m.Ctx != nil || m.pendCount != 0 || m.pendSquash ||
		m.lastLoadReg != RZero {
		m.Trans.Fallbacks++
		return m.Run()
	}
	m.Ran = EngineTranslated
	p := m.Prog
	p.initTranslation()
	dec := p.dec
	mem := m.Mem
	tagShift, tagMask := m.HW.TagShift, m.HW.TagMask
	memAddrMask := m.HW.MemAddrMask
	isIntItem := m.HW.IsIntItem
	trapCycles := m.HW.TrapCycles
	memtagBase, memtagShift, memtagLimit := m.HW.MemtagBase, m.HW.MemtagShift, m.HW.MemtagLimit
	maxCycles := m.MaxCycles
	st := &m.Stats

	// The working register file: the 32 architectural registers plus the
	// scratch slot absorbing remapped zero-destination writes (RScratch).
	// Sized 256 so every uint8 register index is provably in range and the
	// compiler elides the bounds check on each dispatch-loop access; slots
	// past RScratch are never touched.
	var regs [256]uint32
	copy(regs[:32], m.Regs[:])
	r := &regs

	halted := m.halted
	pc := m.PC
	cycles := st.Cycles
	instrs := st.Instrs

	if len(m.execCounts) < len(dec) {
		m.execCounts = make([]uint64, len(dec))
	}
	counts := m.execCounts[:len(dec)]
	// Per-block counters, indexed by dense block id; grown (with headroom)
	// when execution reaches a block translated past the current size.
	bctr := m.bctr

	// Pipeline state reconstructed only on MaxCycles faults, so a
	// subsequent inspection sees exactly what the fused loop would leave.
	pendTarget, pendCount, pendSquash := -1, 0, false
	var squashed uint64
	var failf string
	var failargs []any
	var failErr error
	var fpc int
	var b *tblock
	var trans bool
	// Dispatch phase: the step loop runs the block body, then (inSlots) a
	// terminator's precompiled delay slots; pendT/condTaken/itgt carry the
	// resolved transfer across the slot phase.
	var steps []tstep
	var si int
	var inSlots bool
	var o *outcome
	var condTaken bool
	var itgt int
	var pendT int
	var bc *blockCtr

	if halted {
		goto flush
	}

loop:
	for {
		if b == nil {
			b, trans = p.blockAt(pc)
			if b == nil {
				failf = "pc out of range"
				break loop
			}
			if trans {
				m.Trans.Translated++
			}
		}

		// Block body: the whole body's cycles (including static interlock
		// stalls) are charged up front; per-instruction counts, categories
		// and stall attribution are expanded from the block counters at
		// flush.
		if int(b.id) >= len(bctr) {
			grown := make([]blockCtr, int(b.id)+64)
			copy(grown, bctr)
			bctr = grown
			m.bctr = bctr
		}
		bc = &bctr[b.id]
		bc.body++
		cycles += b.bodyCyc
		steps = b.steps
		si = 0
		inSlots = false

	dispatch:
		for si < len(steps) {
			s := &steps[si]
			si++
			switch s.kind {
			case uint8(NOP):
			case uint8(MOV):
				r[s.rd] = r[s.rs1]
			case uint8(LI):
				r[s.rd] = uint32(s.imm)
			case uint8(ADD):
				r[s.rd] = uint32(int32(r[s.rs1]) + int32(r[s.rs2]))
			case uint8(ADDI):
				r[s.rd] = uint32(int32(r[s.rs1]) + s.imm)
			case uint8(SUB):
				r[s.rd] = uint32(int32(r[s.rs1]) - int32(r[s.rs2]))
			case uint8(AND):
				r[s.rd] = r[s.rs1] & r[s.rs2]
			case uint8(ANDI):
				r[s.rd] = r[s.rs1] & uint32(s.imm)
			case uint8(OR):
				r[s.rd] = r[s.rs1] | r[s.rs2]
			case uint8(ORI):
				r[s.rd] = r[s.rs1] | uint32(s.imm)
			case uint8(XOR):
				r[s.rd] = r[s.rs1] ^ r[s.rs2]
			case uint8(XORI):
				r[s.rd] = r[s.rs1] ^ uint32(s.imm)
			case uint8(SLL):
				r[s.rd] = r[s.rs1] << (r[s.rs2] & 31)
			case uint8(SLLI):
				r[s.rd] = r[s.rs1] << (uint32(s.imm) & 31)
			case uint8(SRL):
				r[s.rd] = r[s.rs1] >> (r[s.rs2] & 31)
			case uint8(SRLI):
				r[s.rd] = r[s.rs1] >> (uint32(s.imm) & 31)
			case uint8(SRA):
				r[s.rd] = uint32(int32(r[s.rs1]) >> (r[s.rs2] & 31))
			case uint8(SRAI):
				r[s.rd] = uint32(int32(r[s.rs1]) >> (uint32(s.imm) & 31))
			case uint8(MUL):
				r[s.rd] = uint32(int32(r[s.rs1]) * int32(r[s.rs2]))
			case uint8(FADD):
				r[s.rd] = math.Float32bits(math.Float32frombits(r[s.rs1]) + math.Float32frombits(r[s.rs2]))
			case uint8(FSUB):
				r[s.rd] = math.Float32bits(math.Float32frombits(r[s.rs1]) - math.Float32frombits(r[s.rs2]))
			case uint8(FMUL):
				r[s.rd] = math.Float32bits(math.Float32frombits(r[s.rs1]) * math.Float32frombits(r[s.rs2]))
			case uint8(FDIV):
				r[s.rd] = math.Float32bits(math.Float32frombits(r[s.rs1]) / math.Float32frombits(r[s.rs2]))
			case uint8(FLT):
				if math.Float32frombits(r[s.rs1]) < math.Float32frombits(r[s.rs2]) {
					r[s.rd] = 1
				} else {
					r[s.rd] = 0
				}
			case uint8(FEQ):
				if math.Float32frombits(r[s.rs1]) == math.Float32frombits(r[s.rs2]) {
					r[s.rd] = 1
				} else {
					r[s.rd] = 0
				}
			case uint8(ITOF):
				r[s.rd] = math.Float32bits(float32(int32(r[s.rs1])))
			case uint8(FTOI):
				r[s.rd] = uint32(int32(math.Float32frombits(r[s.rs1])))
			case uint8(DIV):
				if r[s.rs2] == 0 {
					fpc = int(s.off)
					failf = "division by zero"
					goto stepFault
				}
				r[s.rd] = uint32(int32(r[s.rs1]) / int32(r[s.rs2]))
			case uint8(REM):
				if r[s.rs2] == 0 {
					fpc = int(s.off)
					failf = "division by zero"
					goto stepFault
				}
				r[s.rd] = uint32(int32(r[s.rs1]) % int32(r[s.rs2]))

			case uint8(LD):
				addr := uint32(int32(r[s.rs1]) + s.imm)
				if addr&3 != 0 {
					fpc = int(s.off)
					failf, failargs = "misaligned load at %#x", []any{addr}
					goto stepFault
				}
				if int(addr>>2) >= len(mem) {
					fpc = int(s.off)
					failf, failargs = "load out of range at %#x", []any{addr}
					goto stepFault
				}
				r[s.rd] = mem[addr>>2]
			case uint8(ST):
				addr := uint32(int32(r[s.rs1]) + s.imm)
				if addr&3 != 0 {
					fpc = int(s.off)
					failf, failargs = "misaligned store at %#x", []any{addr}
					goto stepFault
				}
				if int(addr>>2) >= len(mem) {
					fpc = int(s.off)
					failf, failargs = "store out of range at %#x", []any{addr}
					goto stepFault
				}
				mem[addr>>2] = r[s.rs2]
			case uint8(LDT):
				addr := uint32(int32(r[s.rs1])+s.imm) & memAddrMask &^ 3
				var v uint32
				if int(addr>>2) < len(mem) {
					v = mem[addr>>2]
				}
				r[s.rd] = v
			case uint8(STT):
				addr := uint32(int32(r[s.rs1])+s.imm) & memAddrMask &^ 3
				if int(addr>>2) >= len(mem) {
					fpc = int(s.off)
					failf, failargs = "store out of range at %#x", []any{addr}
					goto stepFault
				}
				mem[addr>>2] = r[s.rs2]
			case uint8(LDC), uint8(STC):
				v := r[s.rs1]
				if uint8((v>>tagShift)&tagMask) != s.tag {
					// Tag mismatch: back out the static block accounting,
					// re-charge the executed prefix, then enter the
					// type-error path exactly as the fused loop does.
					// (LDC/STC never appear in delay slots — see slotSimple —
					// so this is always a body step.)
					bc.body--
					cycles = m.accountPrefix(int(b.start), int(s.off), cycles-b.bodyCyc)
					if m.HW.CheckFailHandler < 0 {
						pc = int(s.off)
						failf, failargs = "checked access tag mismatch: item %#x, want tag %d", []any{v, s.tag}
						break loop
					}
					r[RT0] = v
					r[RT1] = uint32(s.tag)
					cycles += trapCycles
					st.Traps++
					pc = m.HW.CheckFailHandler
					if maxCycles != 0 && cycles > maxCycles {
						failf, failargs = "cycle limit %d exceeded", []any{maxCycles}
						break loop
					}
					b = nil
					continue loop
				}
				addr := uint32(int32(v)+s.imm) & memAddrMask
				if addr&3 != 0 {
					fpc = int(s.off)
					if s.kind == uint8(LDC) {
						failf, failargs = "misaligned load at %#x", []any{addr}
					} else {
						failf, failargs = "misaligned store at %#x", []any{addr}
					}
					goto stepFault
				}
				if int(addr>>2) >= len(mem) {
					fpc = int(s.off)
					if s.kind == uint8(LDC) {
						failf, failargs = "load out of range at %#x", []any{addr}
					} else {
						failf, failargs = "store out of range at %#x", []any{addr}
					}
					goto stepFault
				}
				if s.kind == uint8(LDC) {
					r[s.rd] = mem[addr>>2]
				} else {
					mem[addr>>2] = r[s.rs2]
				}

			case uint8(LDM), uint8(STM):
				item := r[s.rs1]
				addr := uint32(int32(item)+s.imm) & memAddrMask &^ 3
				if addr < memtagLimit {
					ca := mem[(memtagBase+(addr>>memtagShift)<<2)>>2]
					viol := ca == 0
					if !viol {
						cb := s.tag
						if cb == RZero {
							cb = s.rs1
						}
						ba := r[cb] & memAddrMask &^ 3
						if ba>>memtagShift != addr>>memtagShift && ba < memtagLimit &&
							mem[(memtagBase+(ba>>memtagShift)<<2)>>2] != ca {
							viol = true
						}
					}
					if viol {
						// Granule mismatch: back out the static block
						// accounting, re-charge the executed prefix, then enter
						// the memtag-error path exactly as the fused loop does.
						// (LDM/STM never appear in delay slots — see slotSimple —
						// so this is always a body step.)
						bc.body--
						cycles = m.accountPrefix(int(b.start), int(s.off), cycles-b.bodyCyc)
						if m.HW.MemtagFailHandler < 0 {
							pc = int(s.off)
							failf, failargs = "memtag granule check failed: item %#x, addr %#x", []any{item, addr}
							break loop
						}
						r[RT0] = item
						r[RT1] = addr
						cycles += trapCycles
						st.Traps++
						pc = m.HW.MemtagFailHandler
						if maxCycles != 0 && cycles > maxCycles {
							failf, failargs = "cycle limit %d exceeded", []any{maxCycles}
							break loop
						}
						b = nil
						continue loop
					}
				}
				if int(addr>>2) >= len(mem) {
					fpc = int(s.off)
					if s.kind == uint8(LDM) {
						failf, failargs = "load out of range at %#x", []any{addr}
					} else {
						failf, failargs = "store out of range at %#x", []any{addr}
					}
					goto stepFault
				}
				if s.kind == uint8(LDM) {
					r[s.rd] = mem[addr>>2]
				} else {
					mem[addr>>2] = r[s.rs2]
				}

			case uint8(ADDTC), uint8(SUBTC):
				if isIntItem == nil {
					fpc = int(s.off)
					failf, failargs = "%s without integer-test hardware", []any{Op(s.kind)}
					goto stepFault
				}
				a, bv := r[s.rs1], r[s.rs2]
				var s64 int64
				if s.kind == uint8(ADDTC) {
					s64 = int64(int32(a)) + int64(int32(bv))
				} else {
					s64 = int64(int32(a)) - int64(int32(bv))
				}
				res := uint32(s64)
				if !isIntItem(a) || !isIntItem(bv) ||
					s64 != int64(int32(res)) || !isIntItem(res) {
					// ADDTC/SUBTC never appear in delay slots (slotSimple),
					// so this is always a body step; no pending branch is
					// possible here, so the fused loop's trap-in-delay-slot
					// fault cannot occur. s.tag carries the original rd (rd
					// itself went through the zero-destination remap).
					bc.body--
					cycles = m.accountPrefix(int(b.start), int(s.off), cycles-b.bodyCyc)
					if m.HW.TrapHandler < 0 {
						pc = int(s.off)
						failf, failargs = "unhandled arithmetic trap (%v %#x %#x)", []any{Op(s.kind), a, bv}
						break loop
					}
					mem[TrapOpAddr>>2] = uint32(s.kind)
					mem[TrapAAddr>>2] = a
					mem[TrapBAddr>>2] = bv
					mem[TrapRdAddr>>2] = uint32(s.tag)
					mem[TrapPCAddr>>2] = uint32(int(s.off) + 1)
					cycles += trapCycles
					st.Traps++
					pc = m.HW.TrapHandler
					if maxCycles != 0 && cycles > maxCycles {
						failf, failargs = "cycle limit %d exceeded", []any{maxCycles}
						break loop
					}
					b = nil
					continue loop
				}
				r[s.rd] = res

			// Fused superinstructions: both halves execute in textual
			// order, so architectural state matches the unfused stream.
			case kSrliAndi:
				r[s.rd] = r[s.rs1] >> (uint32(s.imm) & 31)
				r[s.rd2] = r[s.rs3] & uint32(s.imm2)
			case kSlliOri:
				r[s.rd] = r[s.rs1] << (uint32(s.imm) & 31)
				r[s.rd2] = r[s.rs3] | uint32(s.imm2)
			case kMovMov:
				r[s.rd] = r[s.rs1]
				r[s.rd2] = r[s.rs3]
			case kMov3:
				r[s.rd] = r[s.rs1]
				r[s.rd2] = r[s.rs3]
				r[s.rs2] = r[s.tag]
			case kMov4:
				r[s.rd] = r[s.rs1]
				r[s.rd2] = r[s.rs3]
				r[s.rs2] = r[s.tag]
				r[uint8(s.imm)] = r[uint8(s.imm>>8)]
			case kAndiLd, kAddiLd:
				if s.kind == kAndiLd {
					r[s.rd] = r[s.rs1] & uint32(s.imm)
				} else {
					r[s.rd] = uint32(int32(r[s.rs1]) + s.imm)
				}
				addr := uint32(int32(r[s.rs3]) + s.imm2)
				if addr&3 != 0 {
					fpc = int(s.off) + 1
					failf, failargs = "misaligned load at %#x", []any{addr}
					goto stepFault
				}
				if int(addr>>2) >= len(mem) {
					fpc = int(s.off) + 1
					failf, failargs = "load out of range at %#x", []any{addr}
					goto stepFault
				}
				r[s.rd2] = mem[addr>>2]
			case kLdLd:
				a1 := uint32(int32(r[s.rs1]) + s.imm)
				if a1&3 != 0 || int(a1>>2) >= len(mem) {
					fpc = int(s.off)
					if a1&3 != 0 {
						failf, failargs = "misaligned load at %#x", []any{a1}
					} else {
						failf, failargs = "load out of range at %#x", []any{a1}
					}
					goto stepFault
				}
				r[s.rd] = mem[a1>>2]
				a2 := uint32(int32(r[s.rs3]) + s.imm2)
				if a2&3 != 0 || int(a2>>2) >= len(mem) {
					fpc = int(s.off) + 1
					if a2&3 != 0 {
						failf, failargs = "misaligned load at %#x", []any{a2}
					} else {
						failf, failargs = "load out of range at %#x", []any{a2}
					}
					goto stepFault
				}
				r[s.rd2] = mem[a2>>2]
			case kStSt:
				a1 := uint32(int32(r[s.rs1]) + s.imm)
				if a1&3 != 0 || int(a1>>2) >= len(mem) {
					fpc = int(s.off)
					if a1&3 != 0 {
						failf, failargs = "misaligned store at %#x", []any{a1}
					} else {
						failf, failargs = "store out of range at %#x", []any{a1}
					}
					goto stepFault
				}
				mem[a1>>2] = r[s.rs2]
				a2 := uint32(int32(r[s.rs3]) + s.imm2)
				if a2&3 != 0 || int(a2>>2) >= len(mem) {
					fpc = int(s.off) + 1
					if a2&3 != 0 {
						failf, failargs = "misaligned store at %#x", []any{a2}
					} else {
						failf, failargs = "store out of range at %#x", []any{a2}
					}
					goto stepFault
				}
				mem[a2>>2] = r[s.tag]
			case kMovLd:
				r[s.rd] = r[s.rs1]
				a2 := uint32(int32(r[s.rs3]) + s.imm2)
				if a2&3 != 0 || int(a2>>2) >= len(mem) {
					fpc = int(s.off) + 1
					if a2&3 != 0 {
						failf, failargs = "misaligned load at %#x", []any{a2}
					} else {
						failf, failargs = "load out of range at %#x", []any{a2}
					}
					goto stepFault
				}
				r[s.rd2] = mem[a2>>2]
			case kLdMov:
				a1 := uint32(int32(r[s.rs1]) + s.imm)
				if a1&3 != 0 || int(a1>>2) >= len(mem) {
					fpc = int(s.off)
					if a1&3 != 0 {
						failf, failargs = "misaligned load at %#x", []any{a1}
					} else {
						failf, failargs = "load out of range at %#x", []any{a1}
					}
					goto stepFault
				}
				r[s.rd] = mem[a1>>2]
				r[s.rd2] = r[s.rs3]
			case kLdSt:
				a1 := uint32(int32(r[s.rs1]) + s.imm)
				if a1&3 != 0 || int(a1>>2) >= len(mem) {
					fpc = int(s.off)
					if a1&3 != 0 {
						failf, failargs = "misaligned load at %#x", []any{a1}
					} else {
						failf, failargs = "load out of range at %#x", []any{a1}
					}
					goto stepFault
				}
				r[s.rd] = mem[a1>>2]
				a2 := uint32(int32(r[s.rs3]) + s.imm2)
				if a2&3 != 0 || int(a2>>2) >= len(mem) {
					fpc = int(s.off) + 1
					if a2&3 != 0 {
						failf, failargs = "misaligned store at %#x", []any{a2}
					} else {
						failf, failargs = "store out of range at %#x", []any{a2}
					}
					goto stepFault
				}
				mem[a2>>2] = r[s.tag]
			case kStLd:
				a1 := uint32(int32(r[s.rs1]) + s.imm)
				if a1&3 != 0 || int(a1>>2) >= len(mem) {
					fpc = int(s.off)
					if a1&3 != 0 {
						failf, failargs = "misaligned store at %#x", []any{a1}
					} else {
						failf, failargs = "store out of range at %#x", []any{a1}
					}
					goto stepFault
				}
				mem[a1>>2] = r[s.rs2]
				a2 := uint32(int32(r[s.rs3]) + s.imm2)
				if a2&3 != 0 || int(a2>>2) >= len(mem) {
					fpc = int(s.off) + 1
					if a2&3 != 0 {
						failf, failargs = "misaligned load at %#x", []any{a2}
					} else {
						failf, failargs = "load out of range at %#x", []any{a2}
					}
					goto stepFault
				}
				r[s.rd2] = mem[a2>>2]
			case kStMov:
				a1 := uint32(int32(r[s.rs1]) + s.imm)
				if a1&3 != 0 || int(a1>>2) >= len(mem) {
					fpc = int(s.off)
					if a1&3 != 0 {
						failf, failargs = "misaligned store at %#x", []any{a1}
					} else {
						failf, failargs = "store out of range at %#x", []any{a1}
					}
					goto stepFault
				}
				mem[a1>>2] = r[s.rs2]
				r[s.rd2] = r[s.rs3]
			case kMovSt:
				r[s.rd] = r[s.rs1]
				a2 := uint32(int32(r[s.rs3]) + s.imm2)
				if a2&3 != 0 || int(a2>>2) >= len(mem) {
					fpc = int(s.off) + 1
					if a2&3 != 0 {
						failf, failargs = "misaligned store at %#x", []any{a2}
					} else {
						failf, failargs = "store out of range at %#x", []any{a2}
					}
					goto stepFault
				}
				mem[a2>>2] = r[s.tag]
			case kAddiSt:
				r[s.rd] = uint32(int32(r[s.rs1]) + s.imm)
				a2 := uint32(int32(r[s.rs3]) + s.imm2)
				if a2&3 != 0 || int(a2>>2) >= len(mem) {
					fpc = int(s.off) + 1
					if a2&3 != 0 {
						failf, failargs = "misaligned store at %#x", []any{a2}
					} else {
						failf, failargs = "store out of range at %#x", []any{a2}
					}
					goto stepFault
				}
				mem[a2>>2] = r[s.tag]
			case kLdSrli:
				a1 := uint32(int32(r[s.rs1]) + s.imm)
				if a1&3 != 0 || int(a1>>2) >= len(mem) {
					fpc = int(s.off)
					if a1&3 != 0 {
						failf, failargs = "misaligned load at %#x", []any{a1}
					} else {
						failf, failargs = "load out of range at %#x", []any{a1}
					}
					goto stepFault
				}
				r[s.rd] = mem[a1>>2]
				r[s.rd2] = r[s.rs3] >> (uint32(s.imm2) & 31)
			case kMovSrli:
				r[s.rd] = r[s.rs1]
				r[s.rd2] = r[s.rs3] >> (uint32(s.imm2) & 31)
			case kLdAddi:
				a1 := uint32(int32(r[s.rs1]) + s.imm)
				if a1&3 != 0 || int(a1>>2) >= len(mem) {
					fpc = int(s.off)
					if a1&3 != 0 {
						failf, failargs = "misaligned load at %#x", []any{a1}
					} else {
						failf, failargs = "load out of range at %#x", []any{a1}
					}
					goto stepFault
				}
				r[s.rd] = mem[a1>>2]
				r[s.rd2] = uint32(int32(r[s.rs3]) + s.imm2)
			case kStLi:
				a1 := uint32(int32(r[s.rs1]) + s.imm)
				if a1&3 != 0 || int(a1>>2) >= len(mem) {
					fpc = int(s.off)
					if a1&3 != 0 {
						failf, failargs = "misaligned store at %#x", []any{a1}
					} else {
						failf, failargs = "store out of range at %#x", []any{a1}
					}
					goto stepFault
				}
				mem[a1>>2] = r[s.rs2]
				r[s.rd2] = uint32(s.imm2)
			case kLiOr:
				r[s.rd] = uint32(s.imm)
				r[s.rd2] = r[s.rs3] | r[s.tag]
			case kOrAddi:
				r[s.rd] = r[s.rs1] | r[s.rs2]
				r[s.rd2] = uint32(int32(r[s.rs3]) + s.imm2)
			case kSlliSrai:
				r[s.rd] = r[s.rs1] << (uint32(s.imm) & 31)
				r[s.rd2] = uint32(int32(r[s.rs3]) >> (uint32(s.imm2) & 31))

			// Save/restore runs: one address computation and one combined
			// check cover the whole burst. The fast-path range check is
			// conservative when the addresses wrap the 32-bit space (the
			// precomputed word index keeps growing where the wrapped address
			// would come back in range), so misses fall to a slow path that
			// re-runs the elements exactly as the unfused stream would.
			case kLd3:
				a := uint32(int32(r[s.rs1]) + s.imm)
				w := int(a >> 2)
				if a&3 != 0 || w+2 >= len(mem) {
					goto memRunSlow
				}
				v := uint32(s.imm2)
				r[uint8(v)] = mem[w]
				r[uint8(v>>8)] = mem[w+1]
				r[uint8(v>>16)] = mem[w+2]
			case kLd4:
				a := uint32(int32(r[s.rs1]) + s.imm)
				w := int(a >> 2)
				if a&3 != 0 || w+3 >= len(mem) {
					goto memRunSlow
				}
				v := uint32(s.imm2)
				r[uint8(v)] = mem[w]
				r[uint8(v>>8)] = mem[w+1]
				r[uint8(v>>16)] = mem[w+2]
				r[uint8(v>>24)] = mem[w+3]
			case kSt3:
				a := uint32(int32(r[s.rs1]) + s.imm)
				w := int(a >> 2)
				if a&3 != 0 || w+2 >= len(mem) {
					goto memRunSlow
				}
				v := uint32(s.imm2)
				mem[w] = r[uint8(v)]
				mem[w+1] = r[uint8(v>>8)]
				mem[w+2] = r[uint8(v>>16)]
			case kSt4:
				a := uint32(int32(r[s.rs1]) + s.imm)
				w := int(a >> 2)
				if a&3 != 0 || w+3 >= len(mem) {
					goto memRunSlow
				}
				v := uint32(s.imm2)
				mem[w] = r[uint8(v)]
				mem[w+1] = r[uint8(v>>8)]
				mem[w+2] = r[uint8(v>>16)]
				mem[w+3] = r[uint8(v>>24)]

			default:
				fpc = int(s.off)
				failf, failargs = "bad opcode %v", []any{Op(s.kind)}
				goto stepFault
			}
		}

		goto terminator

	memRunSlow:
		// A save/restore run missed its fast-path check: re-run its
		// elements exactly as the unfused stream executes them — a fresh
		// address per element — so the right element faults with the right
		// message after its predecessors took effect, or the whole run
		// completes when the fast check was merely conservative (wrapped
		// addresses). Runs never appear in delay slots (slots are compiled
		// unfused), so a fault here is always a body fault.
		{
			s := &steps[si-1]
			elems := 3
			if s.kind == kLd4 || s.kind == kSt4 {
				elems = 4
			}
			isLoad := s.kind == kLd3 || s.kind == kLd4
			v := uint32(s.imm2)
			for k := 0; k < elems; k++ {
				addr := uint32(int32(r[s.rs1]) + s.imm + int32(4*k))
				if addr&3 != 0 {
					fpc = int(s.off) + k
					if isLoad {
						failf, failargs = "misaligned load at %#x", []any{addr}
					} else {
						failf, failargs = "misaligned store at %#x", []any{addr}
					}
					goto stepFault
				}
				if int(addr>>2) >= len(mem) {
					fpc = int(s.off) + k
					if isLoad {
						failf, failargs = "load out of range at %#x", []any{addr}
					} else {
						failf, failargs = "store out of range at %#x", []any{addr}
					}
					goto stepFault
				}
				if isLoad {
					r[uint8(v>>(8*k))] = mem[addr>>2]
				} else {
					mem[addr>>2] = r[uint8(v>>(8*k))]
				}
			}
			goto dispatch
		}

	terminator:
		t := &b.term
		if inSlots {
			// The transfer's delay slots just ran through the dispatch loop;
			// charge the resolved outcome and complete the transfer.
			cycles += o.cyc
			switch t.kind {
			case termCond:
				var ch *atomic.Pointer[tblock]
				if condTaken {
					bc.taken++
					ch = &t.tnext
				} else {
					bc.fall++
					ch = &t.fnext
				}
				pc = int(o.nextPC)
				b = ch.Load()
				if b == nil {
					b, trans = p.blockAt(pc)
					if b == nil {
						failf = "pc out of range"
						break loop
					}
					if trans {
						m.Trans.Translated++
					}
					ch.Store(b)
				} else {
					m.Trans.ChainHits++
				}
			case termJump:
				bc.taken++
				pc = int(o.nextPC)
				b = t.tnext.Load()
				if b == nil {
					b, trans = p.blockAt(pc)
					if b == nil {
						failf = "pc out of range"
						break loop
					}
					if trans {
						m.Trans.Translated++
					}
					t.tnext.Store(b)
				} else {
					m.Trans.ChainHits++
				}
			default: // termJumpInd
				// Slot-2 load interlock against the computed target, the one
				// stall the translator cannot resolve statically.
				if o.s2wmask != 0 && uint(itgt) < uint(len(dec)) &&
					dec[itgt].readMask&o.s2wmask != 0 {
					cycles++
					st.Stalls++
					st.ByCat[t.slot2.cat]++
					if t.slot2.rtCheck {
						st.ByRTSub[t.slot2.sub]++
					}
				}
				bc.taken++
				pc = itgt
				// The cache is promote-once: a polymorphic site (a return)
				// keeps its first target and misses to the PC-keyed table,
				// rather than churning allocations on every retarget.
				if ce := t.icache.Load(); ce != nil && int(ce.pc) == itgt {
					b = ce.b
					m.Trans.ChainHits++
				} else {
					b, trans = p.blockAt(itgt)
					if b == nil {
						failf = "pc out of range"
						break loop
					}
					if trans {
						m.Trans.Translated++
					}
					if ce == nil {
						t.icache.Store(&icacheEnt{pc: int32(itgt), b: b})
					}
				}
			}
			continue loop
		}
		switch t.kind {
		case termFall:
			pc = int(t.fall.nextPC)
			b = t.fnext.Load()
			if b == nil {
				b, trans = p.blockAt(pc)
				if b == nil {
					failf = "pc out of range"
					break loop
				}
				if trans {
					m.Trans.Translated++
				}
				t.fnext.Store(b)
			} else {
				m.Trans.ChainHits++
			}

		case termHalt:
			counts[t.pc]++
			cycles++
			halted = true
			pc = int(t.pc)
			break loop

		case termSys:
			counts[t.pc]++
			cycles++
			switch t.imm {
			case SysHalt:
				halted = true
				pc = int(t.pc)
				break loop
			case SysError:
				st.ErrorCode = int32(r[RRet])
				st.ErrorItem = r[3]
				halted = true
				pc = int(t.pc)
				break loop
			case SysPutChar:
				m.Output.WriteByte(byte(r[RRet]))
			case SysPutInt:
				m.Output.WriteString(strconv.FormatInt(int64(int32(r[RRet])), 10))
			case SysGCNotify:
				st.GCs++
				st.GCWords += uint64(r[RRet])
			case SysTrapReturn:
				// No pending branch is possible here, so the fused loop's
				// trap-return-in-delay-slot fault cannot occur.
				rd := mem[TrapRdAddr>>2]
				if rd >= 32 {
					pc = int(t.pc)
					failf, failargs = "bad trap destination register %d", []any{rd}
					break loop
				}
				if rd != RZero {
					r[rd] = mem[TrapResultAddr>>2]
				}
				cycles += trapCycles
				pc = int(mem[TrapPCAddr>>2])
				if maxCycles != 0 && cycles > maxCycles {
					failf, failargs = "cycle limit %d exceeded", []any{maxCycles}
					break loop
				}
				b = nil
				continue loop
			default:
				pc = int(t.pc)
				failf, failargs = "bad syscall %d", []any{t.imm}
				break loop
			}
			pc = int(t.pc) + 1
			b = t.fnext.Load()
			if b == nil {
				b, trans = p.blockAt(pc)
				if b == nil {
					failf = "pc out of range"
					break loop
				}
				if trans {
					m.Trans.Translated++
				}
				t.fnext.Store(b)
			} else {
				m.Trans.ChainHits++
			}

		case termCond:
			var taken bool
			switch t.op {
			case BEQ:
				taken = r[t.rs1] == r[t.rs2]
			case BNE:
				taken = r[t.rs1] != r[t.rs2]
			case BLT:
				taken = int32(r[t.rs1]) < int32(r[t.rs2])
			case BGE:
				taken = int32(r[t.rs1]) >= int32(r[t.rs2])
			case BLE:
				taken = int32(r[t.rs1]) <= int32(r[t.rs2])
			case BGT:
				taken = int32(r[t.rs1]) > int32(r[t.rs2])
			case BEQI:
				taken = int32(r[t.rs1]) == t.imm
			case BNEI:
				taken = int32(r[t.rs1]) != t.imm
			case BLTI:
				taken = int32(r[t.rs1]) < t.imm
			case BGEI:
				taken = int32(r[t.rs1]) >= t.imm
			case BTEQ:
				taken = uint8((r[t.rs1]>>tagShift)&tagMask) == t.tag
			case BTNE:
				taken = uint8((r[t.rs1]>>tagShift)&tagMask) != t.tag
			}
			o = &t.fall
			if taken {
				o = &t.taken
			}
			if maxCycles != 0 && cycles+o.checkCyc > maxCycles {
				// Reconstruct the exact machine state the fused loop has at
				// its limit check: branch dispatched (and NOP slots
				// consumed), delay slots still pending otherwise.
				counts[t.pc]++
				cycles += o.checkCyc
				if t.slotsNop {
					if taken {
						counts[t.pc+1]++
						counts[t.pc+2]++
						pc = int(o.nextPC)
					} else {
						if o.annul {
							squashed += 2
						} else {
							counts[t.pc+1]++
							counts[t.pc+2]++
						}
						pc = int(t.pc) + 3
					}
				} else {
					pc = int(t.pc) + 1
					if taken {
						pendTarget, pendCount = int(t.target), delaySlots
					} else if o.annul {
						pendTarget, pendCount, pendSquash = -1, delaySlots, true
					}
				}
				failf, failargs = "cycle limit %d exceeded", []any{maxCycles}
				break loop
			}
			if o.annul || t.slotsNop {
				// No slot work (annulled or NOP slots): complete the
				// transfer inline instead of round-tripping through the
				// dispatch loop's slot phase.
				cycles += o.cyc
				var ch *atomic.Pointer[tblock]
				if taken {
					bc.taken++
					ch = &t.tnext
				} else {
					bc.fall++
					ch = &t.fnext
				}
				pc = int(o.nextPC)
				b = ch.Load()
				if b == nil {
					b, trans = p.blockAt(pc)
					if b == nil {
						failf = "pc out of range"
						break loop
					}
					if trans {
						m.Trans.Translated++
					}
					ch.Store(b)
				} else {
					m.Trans.ChainHits++
				}
				continue loop
			}
			condTaken = taken
			pendT = -1
			if taken {
				pendT = int(t.target)
			}
			inSlots = true
			si = 0
			steps = t.slots[:]
			goto dispatch

		case termJump:
			if t.link {
				r[RRA] = uint32(int(t.pc)+1+delaySlots) << 2
			}
			o = &t.taken
			if maxCycles != 0 && cycles+o.checkCyc > maxCycles {
				counts[t.pc]++
				cycles += o.checkCyc
				if t.slotsNop {
					counts[t.pc+1]++
					counts[t.pc+2]++
					pc = int(o.nextPC)
				} else {
					pc = int(t.pc) + 1
					pendTarget, pendCount = int(t.target), delaySlots
				}
				failf, failargs = "cycle limit %d exceeded", []any{maxCycles}
				break loop
			}
			if t.slotsNop {
				cycles += o.cyc
				bc.taken++
				pc = int(o.nextPC)
				b = t.tnext.Load()
				if b == nil {
					b, trans = p.blockAt(pc)
					if b == nil {
						failf = "pc out of range"
						break loop
					}
					if trans {
						m.Trans.Translated++
					}
					t.tnext.Store(b)
				} else {
					m.Trans.ChainHits++
				}
				continue loop
			}
			pendT = int(t.target)
			inSlots = true
			si = 0
			steps = t.slots[:]
			goto dispatch

		case termJumpInd:
			v := r[t.rs1]
			if v&3 != 0 {
				counts[t.pc]++
				cycles++
				pc = int(t.pc)
				if t.op == JALR {
					failf, failargs = "jalr to misaligned code address %#x", []any{v}
				} else {
					failf, failargs = "jr to misaligned code address %#x", []any{v}
				}
				break loop
			}
			itgt = int(v >> 2)
			if t.link {
				r[RRA] = uint32(int(t.pc)+1+delaySlots) << 2
			}
			o = &t.taken
			if maxCycles != 0 && cycles+o.checkCyc > maxCycles {
				counts[t.pc]++
				cycles += o.checkCyc
				if t.slotsNop {
					counts[t.pc+1]++
					counts[t.pc+2]++
					pc = itgt
				} else {
					pc = int(t.pc) + 1
					pendTarget, pendCount = itgt, delaySlots
				}
				failf, failargs = "cycle limit %d exceeded", []any{maxCycles}
				break loop
			}
			if t.slotsNop {
				// NOP slots cannot hold the load whose interlock the
				// translator defers to run time, so o.s2wmask is zero and
				// the transfer completes inline.
				cycles += o.cyc
				bc.taken++
				pc = itgt
				if ce := t.icache.Load(); ce != nil && int(ce.pc) == itgt {
					b = ce.b
					m.Trans.ChainHits++
				} else {
					b, trans = p.blockAt(itgt)
					if b == nil {
						failf = "pc out of range"
						break loop
					}
					if trans {
						m.Trans.Translated++
					}
					if ce == nil {
						t.icache.Store(&icacheEnt{pc: int32(itgt), b: b})
					}
				}
				continue loop
			}
			pendT = itgt
			inSlots = true
			si = 0
			steps = t.slots[:]
			goto dispatch

		case termInterp:
			// Delegate the transfer and its delay slots to the reference
			// stepper: sync the hot locals into the machine, step until the
			// pipeline drains, and pull the (possibly faulted or halted)
			// state back.
			copy(m.Regs[:], regs[:32])
			m.PC = int(t.pc)
			m.halted = halted
			m.pendTarget, m.pendCount, m.pendSquash = pendTarget, pendCount, pendSquash
			st.Cycles, st.Instrs = cycles, instrs
			err := m.Step()
			if err == nil && maxCycles != 0 && st.Cycles > maxCycles {
				// The fused loop checks the limit right after dispatching
				// the transfer.
				failf, failargs = "cycle limit %d exceeded", []any{maxCycles}
			}
			if err == nil && failf == "" {
				for (m.pendCount > 0 || m.pendSquash) && !m.halted {
					if err = m.Step(); err != nil {
						break
					}
				}
			}
			copy(regs[:32], m.Regs[:])
			cycles, instrs = st.Cycles, st.Instrs
			pc = m.PC
			halted = m.halted
			pendTarget, pendCount, pendSquash = m.pendTarget, m.pendCount, m.pendSquash
			if err != nil {
				failErr = err
				break loop
			}
			if failf != "" || halted {
				break loop
			}
			// Consume a trailing load interlock left by a slot, exactly as
			// the fused loop does on entry.
			if m.lastLoadReg != RZero {
				if !pendSquash && uint(pc) < uint(len(dec)) &&
					dec[pc].readMask&(1<<m.lastLoadReg) != 0 {
					ld := &dec[m.lastLoad]
					cycles++
					st.Stalls++
					st.ByCat[ld.cat]++
					if ld.rtCheck {
						st.ByRTSub[ld.sub]++
					}
				}
				m.lastLoadReg = RZero
			}
			b = nil
		}
	}
	goto flush

stepFault:
	if inSlots {
		// A delay slot faulted: reproduce the fused loop's exact state —
		// the branch and every executed slot counted and charged, the
		// pending-branch pipeline restored. The outcome's static accounting
		// has not been applied on this path.
		{
			t := &b.term
			s1, s2 := t.slot1, t.slot2
			counts[t.pc]++
			counts[t.pc+1]++
			cycles += 1 + uint64(s1.cycles)
			if si-1 == 0 {
				pc = int(t.pc) + 1
				if pendT >= 0 {
					pendTarget, pendCount = pendT, delaySlots
				}
			} else {
				counts[t.pc+2]++
				// The slot-1 load's interlock against slot 2 was charged
				// when slot 1 executed in the fused loop; reproduce it live
				// since the static outcome is not applied on this path.
				if s1.op.IsLoad() && s2.readMask&s1.wmask != 0 {
					cycles++
					st.Stalls++
					st.ByCat[s1.cat]++
					if s1.rtCheck {
						st.ByRTSub[s1.sub]++
					}
				}
				cycles += uint64(s2.cycles)
				pc = int(t.pc) + 2
				if pendT >= 0 {
					pendTarget, pendCount = pendT, delaySlots-1
				}
			}
		}
		goto flush
	}
	// A body instruction faulted: back out the block's static accounting
	// and re-charge the executed prefix (including the faulting
	// instruction) one instruction at a time, reproducing the fused loop's
	// cycle count and execution counts at the fault.
	bc.body--
	cycles = m.accountPrefix(int(b.start), fpc, cycles-b.bodyCyc)
	pc = fpc

flush:
	copy(m.Regs[:], regs[:32])
	m.halted = halted
	m.PC = pc
	m.pendTarget, m.pendCount, m.pendSquash = pendTarget, pendCount, pendSquash

	m.expandBlockCtrs(counts, &squashed,
		&m.Trans.BlockRuns, &m.Trans.Steps, &m.Trans.FusedSteps)
	instrs = m.expandCounts(counts, instrs, squashed)
	st.Cycles, st.Instrs = cycles, instrs

	if failErr != nil {
		return failErr
	}
	if failf != "" {
		return m.fault(failf, failargs...)
	}
	if st.ErrorCode != 0 {
		return &RuntimeError{Code: st.ErrorCode, Item: st.ErrorItem}
	}
	return nil
}

// coversPC reports whether pc lies in the block's body. Used by the
// native engine's fault path to attribute a fault inside a fused stream
// step that spans a fall-through element boundary to the element whose
// block actually contains the faulting instruction.
func (b *tblock) coversPC(pc int32) bool {
	return pc >= b.start && pc < b.start+b.bodyLen
}

// accountPrefix re-charges instructions [start, j] one at a time after a
// block body bailed out mid-flight: execution counts, per-instruction
// cycles, and the load interlock between adjacent prefix instructions
// (never a stall from the bailing instruction itself — the fused loop
// charges a load's stall only after the load succeeds). base is the cycle
// count before the block was entered; the new total is returned.
func (m *Machine) accountPrefix(start, j int, base uint64) uint64 {
	dec := m.Prog.dec
	st := &m.Stats
	for i := start; i <= j; i++ {
		d := &dec[i]
		m.execCounts[i]++
		base += uint64(d.cycles)
		if i < j && d.op.IsLoad() && dec[i+1].readMask&d.wmask != 0 {
			base++
			st.Stalls++
			st.ByCat[d.cat]++
			if d.rtCheck {
				st.ByRTSub[d.sub]++
			}
		}
	}
	return base
}

// expandBlockCtrs expands the per-block counters into per-instruction
// counts plus stall/squash statistics, using each block's static
// accounting, and credits an engine's block-run totals through the three
// pointers (the translated and native engines keep separate totals over
// the same counters). Every nonzero counter belongs to a block that was in
// the dense list when it executed, so the list loaded here covers them all.
func (m *Machine) expandBlockCtrs(counts []uint64, squashed *uint64, blockRuns, steps, fusedSteps *uint64) {
	lp := m.Prog.blist.Load()
	if lp == nil {
		return
	}
	blist := *lp
	st := &m.Stats
	bctr := m.bctr
	for id := range bctr {
		c := &bctr[id]
		e, tk, fl := c.body, c.taken, c.fall
		if e == 0 && tk == 0 && fl == 0 {
			continue
		}
		*c = blockCtr{}
		blk := blist[id]
		if e != 0 {
			for i := blk.start; i < blk.start+blk.bodyLen; i++ {
				counts[i] += e
			}
			for _, rec := range blk.bodyStalls {
				st.Stalls += e
				st.ByCat[rec.cat] += e
				if rec.rtCheck {
					st.ByRTSub[rec.sub] += e
				}
			}
			*blockRuns += e
			*steps += e * uint64(len(blk.steps))
			*fusedSteps += e * blk.fusedN
		}
		if tk != 0 || fl != 0 {
			t := &blk.term
			counts[t.pc] += tk + fl
			if tk != 0 {
				counts[t.pc+1] += tk
				counts[t.pc+2] += tk
				for _, rec := range t.taken.stalls {
					st.Stalls += tk
					st.ByCat[rec.cat] += tk
					if rec.rtCheck {
						st.ByRTSub[rec.sub] += tk
					}
				}
			}
			if fl != 0 {
				if t.fall.annul {
					*squashed += 2 * fl
				} else {
					counts[t.pc+1] += fl
					counts[t.pc+2] += fl
					for _, rec := range t.fall.stalls {
						st.Stalls += fl
						st.ByCat[rec.cat] += fl
						if rec.rtCheck {
							st.ByRTSub[rec.sub] += fl
						}
					}
				}
			}
		}
	}
}

// expandCounts folds the per-instruction execution counts and the squash
// total into the cycle/op statistics, and returns instrs grown by the
// expanded executions.
func (m *Machine) expandCounts(counts []uint64, instrs, squashed uint64) uint64 {
	st := &m.Stats
	dec := m.Prog.dec
	for i, c := range counts {
		if c == 0 {
			continue
		}
		counts[i] = 0
		d := &dec[i]
		cyc := c * uint64(d.cycles)
		instrs += c
		st.ByCat[d.cat] += cyc
		st.ByOp[d.op] += c
		if d.subbed {
			st.BySub[d.sub] += cyc
		}
		if d.rtCheck {
			st.ByRTSub[d.sub] += cyc
		}
	}
	st.ByCat[CatSquash] += squashed
	st.Squashed += squashed
	return instrs + squashed
}
