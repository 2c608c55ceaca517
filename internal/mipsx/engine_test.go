package mipsx

import (
	"context"
	"testing"
)

// TestRanRecordsExecutingEngine pins Machine.Ran and the routing behind
// it: every engine records itself, a translated run keeps its engine under
// a Ctx, a native run under a Ctx delegates to the translated engine, and
// any run with an Observer attached delegates to the reference engine.
func TestRanRecordsExecutingEngine(t *testing.T) {
	for _, tc := range []struct {
		engine   Engine
		ctx, obs bool
		want     Engine
	}{
		{EngineReference, false, false, EngineReference},
		{EngineTranslated, false, false, EngineTranslated},
		{EngineNative, false, false, EngineNative},
		{EngineReference, true, false, EngineReference},
		{EngineTranslated, true, false, EngineTranslated},
		{EngineNative, true, false, EngineTranslated},
		{EngineTranslated, false, true, EngineReference},
		{EngineNative, false, true, EngineReference},
	} {
		m := NewMachine(spinProgram(t), 64, HWConfig{})
		m.MaxCycles = 10_000
		if tc.ctx {
			m.Ctx = context.Background()
		}
		if tc.obs {
			m.Obs = noopObs{}
		}
		m.RunEngine(tc.engine) //nolint:errcheck // the spin loop always hits MaxCycles
		if m.Ran != tc.want {
			t.Errorf("%s (ctx %v, obs %v): Ran = %s, want %s", tc.engine, tc.ctx, tc.obs, m.Ran, tc.want)
		}
	}
}
