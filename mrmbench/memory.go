package main

import (
	"fmt"
	"time"

	"mrm"
	"mrm/internal/core"
	"mrm/internal/memdev"
	"mrm/internal/tier"
	"mrm/internal/units"
)

// buildMemory returns a node's memory system. Untraced, it is the program's
// own mrm.BuildMemory. Traced, it is the same configuration spelled out here
// so that each backend can be wrapped before tier.NewManager sees it; the
// correctness gate compares the two paths' replay digests, so any drift
// between this copy and mrm.BuildMemory fails the traced run.
func buildMemory(cfg mrm.MemoryConfig, traced bool) (*tier.Manager, int, error) {
	if !traced {
		ms, err := mrm.BuildMemory(cfg)
		if err != nil {
			return nil, 0, err
		}
		return ms.Manager, ms.ScratchTier, nil
	}
	hbm := func(capacity units.Bytes) (*timedDevice, error) {
		s := memdev.HBM3E
		s.Capacity = capacity
		s.ReadBW = 8 * units.TBps
		s.WriteBW = 8 * units.TBps
		s.StaticPower = 16
		d, err := tier.NewDeviceTier("hbm", s)
		if err != nil {
			return nil, err
		}
		return &timedDevice{b: d}, nil
	}
	switch cfg {
	case mrm.HBMOnly:
		h, err := hbm(192 * units.GiB)
		if err != nil {
			return nil, 0, err
		}
		m, err := tier.NewManager(tier.StaticPolicy{}, h)
		return m, 0, err
	case mrm.HBMPlusMRM:
		h, err := hbm(24 * units.GiB)
		if err != nil {
			return nil, 0, err
		}
		mcfg := core.DefaultConfig()
		mcfg.Capacity = 384 * units.GiB
		mcfg.ZoneSize = 64 * units.MiB
		mcfg.Classes = []time.Duration{10 * time.Minute, time.Hour, 24 * time.Hour, 7 * 24 * time.Hour}
		mr, err := core.New(mcfg)
		if err != nil {
			return nil, 0, err
		}
		m, err := tier.NewManager(tier.RetentionAwarePolicy{}, h, &timedMRM{b: tier.NewMRMTier("mrm", mr)})
		return m, 0, err
	default:
		return nil, 0, fmt.Errorf("mrmbench: no traced build for memory %v", cfg)
	}
}
