package mipsx

import (
	"context"
	"math"
	"strconv"
)

// pendIdle is the "no branch pending" sentinel for the fused loop's
// delay-slot countdown: negative and far from zero, so the unconditional
// per-instruction decrement cannot reach zero within any bounded run.
const pendIdle = -1 << 40

// Run executes until HALT, a fault, a Lisp runtime error, MaxCycles, or
// cancellation of Ctx.
//
// This is the production engine: a single fused dispatch loop over the
// predecoded instruction stream. The program counter, branch-pipeline
// state and the hot cycle counters live in locals for the whole run and
// are flushed back into the Machine on every exit, load-interlock stalls
// are charged by the load itself peeking at its successor, so the loop
// performs no Go calls and no allocations per simulated instruction.
// It produces exactly the same architectural state, statistics and output
// as the reference single-step path (Step / RunReference) — a property the
// differential tests assert — with one deliberate divergence: the
// MaxCycles limit is enforced at control transfers and trap entries rather
// than after every instruction, so a runaway run can overshoot the limit
// by one straight-line run of code before faulting.
func (m *Machine) Run() error {
	m.Ran = EngineFused
	dec := m.Prog.predecode()
	r := &m.Regs
	mem := m.Mem
	tagShift, tagMask := m.HW.TagShift, m.HW.TagMask
	memAddrMask := m.HW.MemAddrMask
	memtagBase, memtagShift, memtagLimit := m.HW.MemtagBase, m.HW.MemtagShift, m.HW.MemtagLimit
	isIntItem := m.HW.IsIntItem
	trapCycles := m.HW.TrapCycles
	maxCycles := m.MaxCycles
	st := &m.Stats
	// Cancellation state: with a nil Ctx the next-poll threshold is
	// unreachable, so the cost is one compare per control transfer.
	var ctx context.Context
	nextCancel := ^uint64(0)
	if m.Ctx != nil {
		ctx = m.Ctx
		nextCancel = st.Cycles // poll on the first control transfer
	}
	var cancelErr error
	// The observer is consulted only on control-flow events (branches,
	// jumps, traps, syscalls), which already leave the straight-line
	// dispatch path, so a nil observer costs the per-instruction path
	// nothing and the zero-allocation property is preserved.
	obsv := m.Obs

	// Hot machine state, kept in locals until exit.
	halted := m.halted
	pc := m.PC
	pendTarget := m.pendTarget
	pendSquash := m.pendSquash
	// pendCount counts down to the pending branch redirect. Idle is a
	// large negative sentinel rather than zero so the advance tail can
	// decrement unconditionally and test for zero with a single
	// rarely-taken branch.
	pendCount := m.pendCount
	if pendCount == 0 {
		pendCount = pendIdle
	}
	cycles := st.Cycles
	instrs := st.Instrs

	// Per-instruction execution counts. The loop below bumps one counter
	// per executed instruction; the flush after the loop reconstructs the
	// per-category / per-opcode statistics from the counts and the
	// predecoded costs, keeping the hot path to a single increment.
	if len(m.execCounts) < len(dec) {
		m.execCounts = make([]uint64, len(dec))
	}
	counts := m.execCounts[:len(dec)]

	// Annulled-slot count, folded into the statistics on exit.
	var squashed uint64

	// Failure state for the single exit path below; failargs allocates
	// only when a fault actually occurs.
	var failf string
	var failargs []any

	if halted {
		goto flush
	}

	// Interlock carried over from a prior Step: inside the loop the load
	// cases charge the stall by peeking at their successor, so a pending
	// interlock only exists across the Step/Run boundary. Consume it here,
	// mirroring Step's ordering (annulled slots never stall, and an
	// out-of-range PC faults before the interlock is considered).
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
loop:
	for {
		if uint(pc) >= uint(len(dec)) {
			failf = "pc out of range"
			break loop
		}
		d := &dec[pc]

		// Annulled delay slot of a squashing branch that was not taken.
		if pendSquash {
			cycles++
			squashed++
			pc++
			pendCount--
			if pendCount == 0 {
				if pendTarget >= 0 {
					pc = pendTarget
				}
				pendTarget = -1
				pendSquash = false
				pendCount = pendIdle
			}
			continue
		}

		cycles += uint64(d.cycles)
		counts[pc]++

		// MOV is by far the most frequent opcode in compiled Lisp code
		// (~20% dynamically); testing for it directly keeps those
		// dispatches off the switch's indirect jump.
		if d.op == MOV {
			r[d.rd&31] = r[d.rs1&31]
			r[RZero] = 0
			pc++
			pendCount--
			if pendCount == 0 {
				if pendTarget >= 0 {
					pc = pendTarget
				}
				pendTarget = -1
				pendSquash = false
				pendCount = pendIdle
			}
			continue
		}

		switch d.op {
		case NOP:
		case MOV:
			r[d.rd&31] = r[d.rs1&31]
		case LI:
			r[d.rd&31] = uint32(d.imm)
		case ADD:
			r[d.rd&31] = uint32(int32(r[d.rs1&31]) + int32(r[d.rs2&31]))
		case ADDI:
			r[d.rd&31] = uint32(int32(r[d.rs1&31]) + d.imm)
		case SUB:
			r[d.rd&31] = uint32(int32(r[d.rs1&31]) - int32(r[d.rs2&31]))
		case AND:
			r[d.rd&31] = r[d.rs1&31] & r[d.rs2&31]
		case ANDI:
			r[d.rd&31] = r[d.rs1&31] & uint32(d.imm)
		case OR:
			r[d.rd&31] = r[d.rs1&31] | r[d.rs2&31]
		case ORI:
			r[d.rd&31] = r[d.rs1&31] | uint32(d.imm)
		case XOR:
			r[d.rd&31] = r[d.rs1&31] ^ r[d.rs2&31]
		case XORI:
			r[d.rd&31] = r[d.rs1&31] ^ uint32(d.imm)
		case SLL:
			r[d.rd&31] = r[d.rs1&31] << (r[d.rs2&31] & 31)
		case SLLI:
			r[d.rd&31] = r[d.rs1&31] << (uint32(d.imm) & 31)
		case SRL:
			r[d.rd&31] = r[d.rs1&31] >> (r[d.rs2&31] & 31)
		case SRLI:
			r[d.rd&31] = r[d.rs1&31] >> (uint32(d.imm) & 31)
		case SRA:
			r[d.rd&31] = uint32(int32(r[d.rs1&31]) >> (r[d.rs2&31] & 31))
		case SRAI:
			r[d.rd&31] = uint32(int32(r[d.rs1&31]) >> (uint32(d.imm) & 31))
		case MUL:
			r[d.rd&31] = uint32(int32(r[d.rs1&31]) * int32(r[d.rs2&31]))
		case FADD:
			r[d.rd&31] = math.Float32bits(math.Float32frombits(r[d.rs1&31]) + math.Float32frombits(r[d.rs2&31]))
		case FSUB:
			r[d.rd&31] = math.Float32bits(math.Float32frombits(r[d.rs1&31]) - math.Float32frombits(r[d.rs2&31]))
		case FMUL:
			r[d.rd&31] = math.Float32bits(math.Float32frombits(r[d.rs1&31]) * math.Float32frombits(r[d.rs2&31]))
		case FDIV:
			r[d.rd&31] = math.Float32bits(math.Float32frombits(r[d.rs1&31]) / math.Float32frombits(r[d.rs2&31]))
		case FLT:
			if math.Float32frombits(r[d.rs1&31]) < math.Float32frombits(r[d.rs2&31]) {
				r[d.rd&31] = 1
			} else {
				r[d.rd&31] = 0
			}
		case FEQ:
			if math.Float32frombits(r[d.rs1&31]) == math.Float32frombits(r[d.rs2&31]) {
				r[d.rd&31] = 1
			} else {
				r[d.rd&31] = 0
			}
		case ITOF:
			r[d.rd&31] = math.Float32bits(float32(int32(r[d.rs1&31])))
		case FTOI:
			r[d.rd&31] = uint32(int32(math.Float32frombits(r[d.rs1&31])))
		case DIV:
			if r[d.rs2&31] == 0 {
				failf = "division by zero"
				break loop
			}
			r[d.rd&31] = uint32(int32(r[d.rs1&31]) / int32(r[d.rs2&31]))
		case REM:
			if r[d.rs2&31] == 0 {
				failf = "division by zero"
				break loop
			}
			r[d.rd&31] = uint32(int32(r[d.rs1&31]) % int32(r[d.rs2&31]))

		case LD:
			addr := uint32(int32(r[d.rs1&31]) + d.imm)
			if addr&3 != 0 {
				failf, failargs = "misaligned load at %#x", []any{addr}
				break loop
			}
			if int(addr>>2) >= len(mem) {
				failf, failargs = "load out of range at %#x", []any{addr}
				break loop
			}
			r[d.rd&31] = mem[addr>>2]
			// Interlock: peek at the instruction that executes next (the
			// pending branch target when this load fills the last delay
			// slot) and charge the stall to this load now. This keeps the
			// interlock test out of the per-instruction dispatch path.
			next := pc + 1
			if pendCount == 1 {
				next = pendTarget
			}
			if uint(next) < uint(len(dec)) && dec[next].readMask&d.wmask != 0 {
				cycles++
				st.Stalls++
				st.ByCat[d.cat]++
				if d.rtCheck {
					st.ByRTSub[d.sub]++
				}
			}
		case ST:
			addr := uint32(int32(r[d.rs1&31]) + d.imm)
			if addr&3 != 0 {
				failf, failargs = "misaligned store at %#x", []any{addr}
				break loop
			}
			if int(addr>>2) >= len(mem) {
				failf, failargs = "store out of range at %#x", []any{addr}
				break loop
			}
			mem[addr>>2] = r[d.rs2&31]
		case LDT:
			// Tag-ignoring loads cannot fault: the hardware masks the tag
			// bits and the low address bits, and a wild (but masked)
			// address just reads whatever the bus returns.
			addr := uint32(int32(r[d.rs1&31])+d.imm) & memAddrMask &^ 3
			var v uint32
			if int(addr>>2) < len(mem) {
				v = mem[addr>>2]
			}
			r[d.rd&31] = v
			next := pc + 1
			if pendCount == 1 {
				next = pendTarget
			}
			if uint(next) < uint(len(dec)) && dec[next].readMask&d.wmask != 0 {
				cycles++
				st.Stalls++
				st.ByCat[d.cat]++
				if d.rtCheck {
					st.ByRTSub[d.sub]++
				}
			}
		case STT:
			addr := uint32(int32(r[d.rs1&31])+d.imm) & memAddrMask &^ 3
			if int(addr>>2) >= len(mem) {
				failf, failargs = "store out of range at %#x", []any{addr}
				break loop
			}
			mem[addr>>2] = r[d.rs2&31]
		case LDM, STM:
			addr := uint32(int32(r[d.rs1&31])+d.imm) & memAddrMask &^ 3
			if addr < memtagLimit {
				ca := mem[(memtagBase+(addr>>memtagShift)<<2)>>2]
				viol := ca == 0
				if !viol {
					cb := d.tag
					if cb == RZero {
						cb = d.rs1
					}
					b := r[cb&31] & memAddrMask &^ 3
					viol = b>>memtagShift != addr>>memtagShift && b < memtagLimit &&
						mem[(memtagBase+(b>>memtagShift)<<2)>>2] != ca
				}
				if viol {
					// Granule check failed: enter the memory-safety error path.
					if m.HW.MemtagFailHandler < 0 {
						failf, failargs = "memtag granule check failed: item %#x, addr %#x", []any{r[d.rs1&31], addr}
						break loop
					}
					r[RT0] = r[d.rs1&31]
					r[RT1] = addr
					cycles += trapCycles
					st.Traps++
					if obsv != nil {
						obsv.Event(Event{Kind: EvTrap, Cycle: cycles, PC: int32(pc),
							Target: int32(m.HW.MemtagFailHandler), Arg: addr})
					}
					pendTarget, pendCount, pendSquash = -1, pendIdle, false
					pc = m.HW.MemtagFailHandler
					if maxCycles != 0 && cycles > maxCycles {
						failf, failargs = "cycle limit %d exceeded", []any{maxCycles}
						break loop
					}
					if cycles >= nextCancel {
						if cancelErr = ctx.Err(); cancelErr != nil {
							break loop
						}
						nextCancel = cycles + cancelCheckCycles
					}
					continue
				}
			}
			if int(addr>>2) >= len(mem) {
				if d.op == LDM {
					failf, failargs = "load out of range at %#x", []any{addr}
				} else {
					failf, failargs = "store out of range at %#x", []any{addr}
				}
				break loop
			}
			if d.op == LDM {
				r[d.rd&31] = mem[addr>>2]
				next := pc + 1
				if pendCount == 1 {
					next = pendTarget
				}
				if uint(next) < uint(len(dec)) && dec[next].readMask&d.wmask != 0 {
					cycles++
					st.Stalls++
					st.ByCat[d.cat]++
					if d.rtCheck {
						st.ByRTSub[d.sub]++
					}
				}
			} else {
				mem[addr>>2] = r[d.rs2&31]
			}

		case LDC, STC:
			if uint8((r[d.rs1&31]>>tagShift)&tagMask) != d.tag {
				// Tag mismatch: enter the type-error path.
				if m.HW.CheckFailHandler < 0 {
					failf, failargs = "checked access tag mismatch: item %#x, want tag %d", []any{r[d.rs1&31], d.tag}
					break loop
				}
				r[RT0] = r[d.rs1&31]
				r[RT1] = uint32(d.tag)
				cycles += trapCycles
				st.Traps++
				if obsv != nil {
					obsv.Event(Event{Kind: EvTrap, Cycle: cycles, PC: int32(pc),
						Target: int32(m.HW.CheckFailHandler), Arg: uint32(d.tag)})
				}
				pendTarget, pendCount, pendSquash = -1, pendIdle, false
				pc = m.HW.CheckFailHandler
				if maxCycles != 0 && cycles > maxCycles {
					failf, failargs = "cycle limit %d exceeded", []any{maxCycles}
					break loop
				}
				if cycles >= nextCancel {
					if cancelErr = ctx.Err(); cancelErr != nil {
						break loop
					}
					nextCancel = cycles + cancelCheckCycles
				}
				continue
			}
			addr := uint32(int32(r[d.rs1&31])+d.imm) & memAddrMask
			if addr&3 != 0 {
				if d.op == LDC {
					failf, failargs = "misaligned load at %#x", []any{addr}
				} else {
					failf, failargs = "misaligned store at %#x", []any{addr}
				}
				break loop
			}
			if int(addr>>2) >= len(mem) {
				if d.op == LDC {
					failf, failargs = "load out of range at %#x", []any{addr}
				} else {
					failf, failargs = "store out of range at %#x", []any{addr}
				}
				break loop
			}
			if d.op == LDC {
				r[d.rd&31] = mem[addr>>2]
				next := pc + 1
				if pendCount == 1 {
					next = pendTarget
				}
				if uint(next) < uint(len(dec)) && dec[next].readMask&d.wmask != 0 {
					cycles++
					st.Stalls++
					st.ByCat[d.cat]++
					if d.rtCheck {
						st.ByRTSub[d.sub]++
					}
				}
			} else {
				mem[addr>>2] = r[d.rs2&31]
			}

		case ADDTC, SUBTC:
			if isIntItem == nil {
				failf, failargs = "%s without integer-test hardware", []any{d.op}
				break loop
			}
			a, b := r[d.rs1&31], r[d.rs2&31]
			var s64 int64
			if d.op == ADDTC {
				s64 = int64(int32(a)) + int64(int32(b))
			} else {
				s64 = int64(int32(a)) - int64(int32(b))
			}
			res := uint32(s64)
			if !isIntItem(a) || !isIntItem(b) ||
				s64 != int64(int32(res)) || !isIntItem(res) {
				// Failed parallel check: enter the software trap handler.
				if m.HW.TrapHandler < 0 {
					failf, failargs = "unhandled arithmetic trap (%v %#x %#x)", []any{d.op, a, b}
					break loop
				}
				if pendCount > 0 {
					failf = "arithmetic trap in delay slot"
					break loop
				}
				mem[TrapOpAddr>>2] = uint32(d.op)
				mem[TrapAAddr>>2] = a
				mem[TrapBAddr>>2] = b
				mem[TrapRdAddr>>2] = uint32(d.rd)
				mem[TrapPCAddr>>2] = uint32(pc + 1)
				cycles += trapCycles
				st.Traps++
				if obsv != nil {
					obsv.Event(Event{Kind: EvTrap, Cycle: cycles, PC: int32(pc),
						Target: int32(m.HW.TrapHandler), Arg: uint32(d.op)})
				}
				pc = m.HW.TrapHandler
				if maxCycles != 0 && cycles > maxCycles {
					failf, failargs = "cycle limit %d exceeded", []any{maxCycles}
					break loop
				}
				if cycles >= nextCancel {
					if cancelErr = ctx.Err(); cancelErr != nil {
						break loop
					}
					nextCancel = cycles + cancelCheckCycles
				}
				continue
			}
			r[d.rd&31] = res

		case BEQ, BNE, BLT, BGE, BLE, BGT, BEQI, BNEI, BLTI, BGEI, BTEQ, BTNE:
			if pendCount > 0 {
				failf = "branch in delay slot"
				break loop
			}
			var taken bool
			switch d.op {
			case BEQ:
				taken = r[d.rs1&31] == r[d.rs2&31]
			case BNE:
				taken = r[d.rs1&31] != r[d.rs2&31]
			case BLT:
				taken = int32(r[d.rs1&31]) < int32(r[d.rs2&31])
			case BGE:
				taken = int32(r[d.rs1&31]) >= int32(r[d.rs2&31])
			case BLE:
				taken = int32(r[d.rs1&31]) <= int32(r[d.rs2&31])
			case BGT:
				taken = int32(r[d.rs1&31]) > int32(r[d.rs2&31])
			case BEQI:
				taken = int32(r[d.rs1&31]) == d.imm
			case BNEI:
				taken = int32(r[d.rs1&31]) != d.imm
			case BLTI:
				taken = int32(r[d.rs1&31]) < d.imm
			case BGEI:
				taken = int32(r[d.rs1&31]) >= d.imm
			case BTEQ:
				taken = uint8((r[d.rs1&31]>>tagShift)&tagMask) == d.tag
			case BTNE:
				taken = uint8((r[d.rs1&31]>>tagShift)&tagMask) != d.tag
			}
			if taken && obsv != nil {
				obsv.Event(Event{Kind: EvBranch, Cycle: cycles,
					PC: int32(pc), Target: d.target})
			}
			if d.slotsNop {
				// Both delay slots are NOPs: consume them here instead
				// of dispatching two empty iterations. Annulled slots
				// count as squashed, executed ones as ordinary NOPs.
				cycles += 2
				if taken {
					counts[pc+1]++
					counts[pc+2]++
					pc = int(d.target)
				} else {
					if d.squash {
						squashed += 2
					} else {
						counts[pc+1]++
						counts[pc+2]++
					}
					pc += 3
				}
			} else {
				if taken {
					pendTarget = int(d.target)
					pendCount = delaySlots
				} else if d.squash {
					pendTarget = -1
					pendCount = delaySlots
					pendSquash = true
				}
				pc++
			}
			if maxCycles != 0 && cycles > maxCycles {
				failf, failargs = "cycle limit %d exceeded", []any{maxCycles}
				break loop
			}
			if cycles >= nextCancel {
				if cancelErr = ctx.Err(); cancelErr != nil {
					break loop
				}
				nextCancel = cycles + cancelCheckCycles
			}
			continue

		case JMP, JAL, JALR, JR:
			if pendCount > 0 {
				failf = "jump in delay slot"
				break loop
			}
			var t int
			switch d.op {
			case JMP:
				t = int(d.target)
			case JAL:
				r[RRA] = uint32(pc+1+delaySlots) << 2
				t = int(d.target)
			case JALR:
				if r[d.rs1&31]&3 != 0 {
					failf, failargs = "jalr to misaligned code address %#x", []any{r[d.rs1&31]}
					break loop
				}
				t = int(r[d.rs1&31] >> 2)
				r[RRA] = uint32(pc+1+delaySlots) << 2
			case JR:
				if r[d.rs1&31]&3 != 0 {
					failf, failargs = "jr to misaligned code address %#x", []any{r[d.rs1&31]}
					break loop
				}
				t = int(r[d.rs1&31] >> 2)
			}
			if obsv != nil {
				k := EvJump
				switch d.op {
				case JAL, JALR:
					k = EvCall
				case JR:
					k = EvReturn
				}
				obsv.Event(Event{Kind: k, Cycle: cycles,
					PC: int32(pc), Target: int32(t)})
			}
			if d.slotsNop {
				// Both delay slots are NOPs: consume them without
				// dispatching and redirect immediately.
				counts[pc+1]++
				counts[pc+2]++
				cycles += 2
				pc = t
			} else {
				pendTarget = t
				pendCount = delaySlots
				pc++
			}
			if maxCycles != 0 && cycles > maxCycles {
				failf, failargs = "cycle limit %d exceeded", []any{maxCycles}
				break loop
			}
			if cycles >= nextCancel {
				if cancelErr = ctx.Err(); cancelErr != nil {
					break loop
				}
				nextCancel = cycles + cancelCheckCycles
			}
			continue

		case SYS:
			switch d.imm {
			case SysHalt:
				halted = true
				if obsv != nil {
					obsv.Event(Event{Kind: EvHalt, Cycle: cycles,
						PC: int32(pc), Target: -1})
				}
				break loop
			case SysPutChar:
				m.Output.WriteByte(byte(r[RRet]))
				if obsv != nil {
					obsv.Event(Event{Kind: EvSyscall, Cycle: cycles,
						PC: int32(pc), Target: -1, Arg: uint32(d.imm)})
				}
			case SysPutInt:
				m.Output.WriteString(strconv.FormatInt(int64(int32(r[RRet])), 10))
				if obsv != nil {
					obsv.Event(Event{Kind: EvSyscall, Cycle: cycles,
						PC: int32(pc), Target: -1, Arg: uint32(d.imm)})
				}
			case SysError:
				st.ErrorCode = int32(r[RRet])
				st.ErrorItem = r[3]
				halted = true
				if obsv != nil {
					obsv.Event(Event{Kind: EvHalt, Cycle: cycles,
						PC: int32(pc), Target: -1, Arg: r[RRet]})
				}
				break loop
			case SysTrapReturn:
				if pendCount > 0 {
					failf = "trap return in delay slot"
					break loop
				}
				rd := mem[TrapRdAddr>>2]
				if rd >= 32 {
					failf, failargs = "bad trap destination register %d", []any{rd}
					break loop
				}
				if rd != RZero {
					r[rd] = mem[TrapResultAddr>>2]
				}
				cycles += trapCycles
				if obsv != nil {
					obsv.Event(Event{Kind: EvTrapRet, Cycle: cycles,
						PC: int32(pc), Target: int32(mem[TrapPCAddr>>2])})
				}
				pc = int(mem[TrapPCAddr>>2])
				if maxCycles != 0 && cycles > maxCycles {
					failf, failargs = "cycle limit %d exceeded", []any{maxCycles}
					break loop
				}
				if cycles >= nextCancel {
					if cancelErr = ctx.Err(); cancelErr != nil {
						break loop
					}
					nextCancel = cycles + cancelCheckCycles
				}
				continue
			case SysGCNotify:
				st.GCs++
				st.GCWords += uint64(r[RRet])
				if obsv != nil {
					obsv.Event(Event{Kind: EvGC, Cycle: cycles,
						PC: int32(pc), Target: -1, Arg: r[RRet]})
				}
			default:
				failf, failargs = "bad syscall %d", []any{d.imm}
				break loop
			}

		case HALT:
			halted = true
			if obsv != nil {
				obsv.Event(Event{Kind: EvHalt, Cycle: cycles,
					PC: int32(pc), Target: -1})
			}
			break loop

		default:
			failf, failargs = "bad opcode %v", []any{d.op}
			break loop
		}

		// The ALU/load cases above store results unconditionally instead
		// of branching on rd != RZero; restoring the hardwired zero here
		// keeps the architectural invariant at a store per instruction.
		r[RZero] = 0

		// Advance past the current instruction, retiring pending delay
		// slots (the counterpart of Machine.advance).
		pc++
		pendCount--
		if pendCount == 0 {
			if pendTarget >= 0 {
				pc = pendTarget
			}
			pendTarget = -1
			pendSquash = false
			pendCount = pendIdle
		}
	}

flush:
	// Flush the local machine state back so faults report the right
	// PC/cycle and a subsequent Step or inspection sees the same state the
	// reference engine would leave.
	m.halted = halted
	m.PC = pc
	if pendCount < 0 {
		pendCount = 0
	}
	m.pendTarget, m.pendCount, m.pendSquash = pendTarget, pendCount, pendSquash
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
	instrs += squashed
	st.Cycles, st.Instrs = cycles, instrs
	// m.lastLoadReg is deliberately left alone: the loop charges interlock
	// stalls at the load itself (peeking the successor), and every loop
	// exit dispatches a non-load last, so no interlock can be pending here.
	// The halted-entry path above must not clobber state Step left behind.

	if cancelErr != nil {
		return &Canceled{Cycle: st.Cycles, Err: cancelErr}
	}
	if failf != "" {
		return m.fault(failf, failargs...)
	}
	if st.ErrorCode != 0 {
		return &RuntimeError{Code: st.ErrorCode, Item: st.ErrorItem}
	}
	return nil
}
