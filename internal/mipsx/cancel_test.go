package mipsx

import (
	"context"
	"errors"
	"testing"
	"time"
)

// spinProgram assembles an infinite counting loop: the only way out is
// cancellation (or a cycle limit).
func spinProgram(t *testing.T) *Program {
	t.Helper()
	a := NewAsm()
	a.Work()
	main := a.NewLabel("main")
	a.Bind(main)
	a.Addi(5, 5, 1)
	a.Jmp(main)
	p, err := a.Finish("main")
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return p
}

// allEngines lists every engine, for tests that must hold on each. A
// native run with a Ctx delegates to the translated engine, so its
// cancellation cases exercise that hand-off.
var allEngines = []Engine{EngineReference, EngineTranslated, EngineNative}

func TestRunCanceledMidFlight(t *testing.T) {
	for _, engine := range allEngines {
		t.Run(engine.String(), func(t *testing.T) {
			m := NewMachine(spinProgram(t), 64, HWConfig{})
			ctx, cancel := context.WithCancel(context.Background())
			m.Ctx = ctx
			go func() {
				time.Sleep(10 * time.Millisecond)
				cancel()
			}()
			done := make(chan error, 1)
			go func() { done <- m.RunEngine(engine) }()
			select {
			case err := <-done:
				var c *Canceled
				if !errors.As(err, &c) {
					t.Fatalf("run returned %v, want *Canceled", err)
				}
				if !errors.Is(err, context.Canceled) {
					t.Errorf("error %v does not unwrap to context.Canceled", err)
				}
				if c.Cycle == 0 || c.Cycle != m.Stats.Cycles {
					t.Errorf("Canceled.Cycle = %d, Stats.Cycles = %d", c.Cycle, m.Stats.Cycles)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("cancellation did not stop the run")
			}
		})
	}
}

func TestRunDeadlineExceeded(t *testing.T) {
	for _, engine := range allEngines {
		t.Run(engine.String(), func(t *testing.T) {
			m := NewMachine(spinProgram(t), 64, HWConfig{})
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
			defer cancel()
			m.Ctx = ctx
			done := make(chan error, 1)
			go func() { done <- m.RunEngine(engine) }()
			select {
			case err := <-done:
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("run returned %v, want context.DeadlineExceeded", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("deadline did not stop the run")
			}
		})
	}
}

// A pre-canceled context must stop the run before its first instruction,
// and a nil context must leave MaxCycles as the only limit.
func TestRunPreCanceledAndNilCtx(t *testing.T) {
	for _, engine := range allEngines {
		t.Run(engine.String(), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			m := NewMachine(spinProgram(t), 64, HWConfig{})
			m.Ctx = ctx
			if err := m.RunEngine(engine); !errors.Is(err, context.Canceled) {
				t.Fatalf("pre-canceled run returned %v", err)
			}
			if m.Stats.Cycles != 0 {
				t.Errorf("pre-canceled run stopped at cycle %d, want 0", m.Stats.Cycles)
			}

			m = NewMachine(spinProgram(t), 64, HWConfig{})
			m.MaxCycles = 200_000 // past a cancellation poll boundary
			err := m.RunEngine(engine)
			var f *Fault
			if !errors.As(err, &f) {
				t.Fatalf("nil-ctx run returned %v, want cycle-limit fault", err)
			}
		})
	}
}

// TestMaxCyclesPerEngine pins where each engine stops a runaway run. The
// spin loop is jmp, addi (delay slot), nop (delay slot), one cycle each.
// The reference engine checks the limit after every instruction, so it
// stops at cycle 1001, after the addi. The block engines check only right
// after dispatching a control transfer; the jump dispatches at cycles 1,
// 4, 7, ..., so they stop at 1003 with its delay slots pending (pc 1).
// Translated and native must agree exactly.
func TestMaxCyclesPerEngine(t *testing.T) {
	for _, tc := range []struct {
		engine Engine
		err    string
	}{
		{EngineReference, "fault at pc=2 cycle=1001: cycle limit 1000 exceeded"},
		{EngineTranslated, "fault at pc=1 cycle=1003: cycle limit 1000 exceeded"},
		{EngineNative, "fault at pc=1 cycle=1003: cycle limit 1000 exceeded"},
	} {
		m := NewMachine(spinProgram(t), 64, HWConfig{})
		m.MaxCycles = 1000
		err := m.RunEngine(tc.engine)
		var f *Fault
		if !errors.As(err, &f) || err.Error() != tc.err {
			t.Errorf("%s: run returned %v, want %s", tc.engine, err, tc.err)
			continue
		}
		if m.Stats.Cycles != f.Cycle || m.PC != f.PC {
			t.Errorf("%s: machine at pc=%d cycle=%d, fault says pc=%d cycle=%d",
				tc.engine, m.PC, m.Stats.Cycles, f.PC, f.Cycle)
		}
	}
}
