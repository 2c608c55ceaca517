package difftest

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mipsx"
)

// The superblock-dataflow invariant: the native engine's dataflow passes
// — tag-check elision and cross-element refusion — must be architecturally
// invisible, so a native run must be bit-identical to the reference engine
// in results AND in the full expanded statistics: elided checks are
// re-charged at exit sites (cycles, CatCheck attribution), and this check
// is what pins that expansion to reference-exact. It is also the
// memory-tagging soundness fence for the optimizer: granule-check facts
// are invalidated by any store, and a torture program run through this
// check must raise its memtag fault exactly where the reference engine,
// which elides nothing, raises it.

// CheckDataflow builds one image, runs the native engine and the
// reference engine on it, and compares the runs bit-for-bit: statistics,
// registers, PC, output bytes, and final memory. The native run must also
// satisfy the statistics invariants.
func CheckDataflow(src string, cfg core.Config, opt Options) *Failure {
	opt = opt.withDefaults()
	img, err := buildImage(src, cfg, opt)
	if err != nil {
		return &Failure{Kind: "build", Config: cfg.String(),
			Detail: fmt.Sprintf("compiler rejected the program: %v", err)}
	}
	ref := runEngine(img, opt.MaxCycles, mipsx.EngineReference)
	if ref.limited {
		return nil // censored: the engines check the limit at different grains
	}
	native := runEngine(img, opt.MaxCycles, mipsx.EngineNative)
	if native.limited {
		return &Failure{Kind: "engine", Config: cfg.String(),
			Detail: "native hit the cycle limit, reference terminated"}
	}
	if f := compareEngines("native", &native, &ref, cfg); f != nil {
		return f
	}
	if err := native.m.Stats.CheckInvariants(); err != nil {
		return &Failure{Kind: "invariant", Config: cfg.String(),
			Detail: fmt.Sprintf("native: %v", err)}
	}
	return nil
}
