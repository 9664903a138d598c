package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"dlinfma/internal/synth"
)

// poolGoldens pins BuildPool's output — every location's fields and every
// trip's visits, float64 bits included — per profile and pool window (0 is
// the bi-weekly default). They were recorded on amd64 from the builder that
// re-clustered every alive candidate at every window seal; the builder that
// merges only around a window's new candidates must land on the same pools
// bit for bit.
var poolGoldens = map[string]uint64{
	"Tiny/0d":  0x288c7fcbaa88d6d4,
	"Tiny/1d":  0xf5eda34b540736cb,
	"Tiny/3d":  0x1f7965577971e07c,
	"DowBJ/0d": 0x41305d5f80ec6ba3,
	"DowBJ/1d": 0xebf3050662630458,
	"DowBJ/3d": 0xb1b02f76674fb4b1,
	"SubBJ/0d": 0x2eff26e62200a00e,
	"SubBJ/1d": 0x2dcea81ead06f6e3,
	"SubBJ/3d": 0xbd31d675ca8fe46e,
}

// hashPool is the FNV-1a hash of p's locations and visits in order.
func hashPool(p *Pool) uint64 {
	h := fnv.New64a()
	var b [8]byte
	word := func(u uint64) {
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	f := func(v float64) { word(math.Float64bits(v)) }
	for _, l := range p.Locations {
		word(uint64(l.ID))
		f(l.Loc.X)
		f(l.Loc.Y)
		word(uint64(l.NStays))
		word(uint64(l.NCouriers))
		f(l.AvgDuration)
		for _, v := range l.TimeDist {
			f(v)
		}
	}
	for _, vs := range p.Visits {
		word(uint64(len(vs)))
		for _, v := range vs {
			word(uint64(v.LocID))
			f(v.ArriveT)
			f(v.LeaveT)
			f(v.MidT)
		}
	}
	return h.Sum64()
}

// TestPoolGolden holds the pools of the Tiny, DowBJ and SubBJ profiles at
// three window lengths to the recorded hashes.
func TestPoolGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("recorded on amd64; an architecture that contracts a*b+c rounds differently")
	}
	for _, prof := range []synth.Profile{synth.Tiny(), synth.DowBJ(), synth.SubBJ()} {
		ds, _, err := synth.Generate(prof)
		if err != nil {
			t.Fatal(err)
		}
		for _, days := range []float64{0, 1, 3} {
			cfg := DefaultConfig()
			cfg.PoolWindowSeconds = days * 86400
			pool, err := BuildPool(context.Background(), ds, cfg)
			if err != nil {
				t.Fatal(err)
			}
			key := fmt.Sprintf("%s/%gd", prof.Name, days)
			got := hashPool(pool)
			if want, ok := poolGoldens[key]; !ok || got != want {
				t.Errorf("%s: pool hash %#x, want %#x (%d locations)", key, got, want, len(pool.Locations))
			}
		}
	}
}
