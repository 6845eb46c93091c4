package experiments

import (
	"fmt"
	"strings"

	"eyeballas/internal/p2p"
	"eyeballas/internal/pipeline"
)

// Stability is a robustness study motivated by the paper's measurement
// window: the crawls ran for six months (Jan–Jun 2009), so the technique
// implicitly assumes footprints are stable under crawl-to-crawl sampling
// noise. Here the same world is crawled repeatedly with independent crawl
// seeds ("months") and the PoP-level footprints of common ASes are
// compared across months.
type Stability struct {
	Months   int
	CommonAS int

	// MeanConsecutiveJaccard averages the PoP-set Jaccard similarity
	// between consecutive months across common ASes.
	MeanConsecutiveJaccard float64
	// MeanFirstLastJaccard compares the first and last month directly.
	MeanFirstLastJaccard float64
	// ASRetention is the fraction of month-1 eligible ASes that remain
	// eligible in every later month.
	ASRetention float64
}

// RunStability crawls the world `months` times and scores footprint
// stability at the paper's default bandwidth.
func RunStability(env *Env, months int) (*Stability, error) {
	if months < 2 {
		return nil, fmt.Errorf("experiments: need >= 2 months, got %d", months)
	}
	// Re-run the pipeline per month with a distinct crawl seed. The
	// world — the geography — is fixed; only sampling varies.
	datasets := make([]*pipeline.Dataset, months)
	for m := range datasets {
		ds, err := env.rebuild(p2p.DefaultConfig(), nil, env.Seed+uint64(1000+m))
		if err != nil {
			return nil, err
		}
		datasets[m] = ds
	}

	common := commonASes(datasets...)
	st := &Stability{Months: months, CommonAS: len(common)}
	if len(datasets[0].Order) > 0 {
		st.ASRetention = float64(len(common)) / float64(len(datasets[0].Order))
	}
	if len(common) == 0 {
		return nil, fmt.Errorf("experiments: no AS eligible in every month")
	}

	// popSets[m][i] is common[i]'s PoP city set in month m.
	popSets := make([][]map[string]bool, months)
	for m, ds := range datasets {
		pops, err := env.pops(ds, common, 40)
		if err != nil {
			return nil, err
		}
		popSets[m] = make([]map[string]bool, len(common))
		for i, ps := range pops {
			set := make(map[string]bool, len(ps))
			for _, p := range ps {
				set[p.City.Name+"/"+p.City.Country] = true
			}
			popSets[m][i] = set
		}
	}

	jaccard := func(a, b map[string]bool) float64 {
		if len(a) == 0 && len(b) == 0 {
			return 1
		}
		inter := 0
		for k := range a {
			if b[k] {
				inter++
			}
		}
		union := len(a) + len(b) - inter
		if union == 0 {
			return 1
		}
		return float64(inter) / float64(union)
	}

	var consecutive, firstLast float64
	for i := range common {
		for m := 1; m < months; m++ {
			consecutive += jaccard(popSets[m-1][i], popSets[m][i])
		}
		firstLast += jaccard(popSets[0][i], popSets[months-1][i])
	}
	st.MeanConsecutiveJaccard = consecutive / float64(len(common)*(months-1))
	st.MeanFirstLastJaccard = firstLast / float64(len(common))
	return st, nil
}

// Render prints the stability scores.
func (s *Stability) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Temporal stability (%d independent monthly crawls; %d common ASes, %.0f%% retention)\n",
		s.Months, s.CommonAS, 100*s.ASRetention)
	fmt.Fprintf(&b, "  mean consecutive-month PoP-set Jaccard: %.3f\n", s.MeanConsecutiveJaccard)
	fmt.Fprintf(&b, "  mean first-vs-last-month Jaccard:       %.3f\n", s.MeanFirstLastJaccard)
	return b.String()
}
