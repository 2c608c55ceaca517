package mipsx

import (
	"context"
	"testing"
)

// TestRanRecordsExecutingEngine pins Machine.Ran: every engine records
// itself, and a translated or native run that delegates to the fused loop
// (here because a Ctx is attached) records fused, not the engine asked for.
func TestRanRecordsExecutingEngine(t *testing.T) {
	for _, tc := range []struct {
		engine Engine
		ctx    bool
		want   Engine
	}{
		{EngineReference, false, EngineReference},
		{EngineFused, false, EngineFused},
		{EngineTranslated, false, EngineTranslated},
		{EngineNative, false, EngineNative},
		{EngineReference, true, EngineReference},
		{EngineFused, true, EngineFused},
		{EngineTranslated, true, EngineFused},
		{EngineNative, true, EngineFused},
	} {
		m := NewMachine(spinProgram(t), 64, HWConfig{})
		m.MaxCycles = 10_000
		if tc.ctx {
			m.Ctx = context.Background()
		}
		m.RunEngine(tc.engine) //nolint:errcheck // the spin loop always hits MaxCycles
		if m.Ran != tc.want {
			t.Errorf("%s (ctx %v): Ran = %s, want %s", tc.engine, tc.ctx, m.Ran, tc.want)
		}
	}
}
