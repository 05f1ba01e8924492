package campaign_test

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
)

// poolBusySeconds scrapes campaign_pool_busy_seconds from the default
// registry's exposition.
func poolBusySeconds(t *testing.T) float64 {
	t.Helper()
	var sb strings.Builder
	if err := obs.Default.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(sb.String(), "\n") {
		if v, ok := strings.CutPrefix(line, "campaign_pool_busy_seconds "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
	}
	t.Fatal("campaign_pool_busy_seconds missing from exposition")
	return 0
}

// TestPoolBusyEveryEngine: the executor records pool busy time once for
// every engine, so a bit-parallel or cursor-scheduled Run reports the
// time its workers spent replaying, as a scalar one does.
func TestPoolBusyEveryEngine(t *testing.T) {
	cases := []struct {
		name  string
		model core.Model
		cfg   campaign.Config
	}{
		{"rtl-batch", core.ModelRTL, campaign.Config{
			Injections: 16, Seed: 5, Target: fault.TargetRF, Window: 300,
			Lanes: 8, Workers: 2,
		}},
		{"microarch-cursor", core.ModelMicroarch, campaign.Config{
			Injections: 24, Seed: 5, Target: fault.TargetRF, Window: 300,
			Sched: campaign.SchedCursor, Workers: 2,
		}},
	}
	obs.Enable()
	defer obs.Disable()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := poolBusySeconds(t)
			res, err := campaign.Run(factoryFor(t, "qsort", tc.model), tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if tc.cfg.Lanes > 1 && res.BatchedRuns+res.PeeledRuns == 0 {
				t.Fatal("the campaign never ran on the batch engine")
			}
			if after := poolBusySeconds(t); after <= before {
				t.Errorf("campaign_pool_busy_seconds did not rise: %v -> %v", before, after)
			}
		})
	}
}
