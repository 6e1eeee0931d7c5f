package algo

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"
)

func TestDeriveSeedIndependent(t *testing.T) {
	seen := make(map[int64]int)
	for idx := 0; idx < 1000; idx++ {
		s := deriveSeed(7, idx)
		if prev, dup := seen[s]; dup {
			t.Fatalf("deriveSeed(7, %d) == deriveSeed(7, %d)", idx, prev)
		}
		seen[s] = idx
	}
	if deriveSeed(1, 0) == deriveSeed(2, 0) {
		t.Fatal("different base seeds produced the same derived seed")
	}
	if deriveSeed(7, 3) != deriveSeed(7, 3) {
		t.Fatal("deriveSeed is not deterministic")
	}
}

// TestStochasticDeterministicAcrossWorkers pins the tentpole guarantee:
// the same seed yields byte-identical results no matter how many workers
// execute the trials.
func TestStochasticDeterministicAcrossWorkers(t *testing.T) {
	s, _ := genSystem(t, 8, 40, 11)
	var base Result
	for i, w := range []int{1, 2, 8} {
		res, err := (&Stochastic{}).Run(context.Background(), s, nil, Config{
			Objective: availability(), Seed: 99, Trials: 64, Workers: w,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if i == 0 {
			base = res
			continue
		}
		if res.Score != base.Score {
			t.Errorf("workers=%d: score %v, workers=1 scored %v", w, res.Score, base.Score)
		}
		if !reflect.DeepEqual(res.Deployment, base.Deployment) {
			t.Errorf("workers=%d: deployment differs from workers=1", w)
		}
		if res.Nodes != base.Nodes || res.Evaluations != base.Evaluations {
			t.Errorf("workers=%d: stats (%d nodes, %d evals) differ from workers=1 (%d, %d)",
				w, res.Nodes, res.Evaluations, base.Nodes, base.Evaluations)
		}
	}
}

func TestGeneticDeterministicAcrossWorkers(t *testing.T) {
	s, d := genSystem(t, 6, 24, 21)
	var base Result
	for i, w := range []int{1, 2, 8} {
		res, err := (&Genetic{}).Run(context.Background(), s, d, Config{
			Objective: availability(), Seed: 5, Trials: 12, Workers: w,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if i == 0 {
			base = res
			continue
		}
		if res.Score != base.Score {
			t.Errorf("workers=%d: score %v, workers=1 scored %v", w, res.Score, base.Score)
		}
		if !reflect.DeepEqual(res.Deployment, base.Deployment) {
			t.Errorf("workers=%d: deployment differs from workers=1", w)
		}
		if res.Evaluations != base.Evaluations {
			t.Errorf("workers=%d: %d evaluations, workers=1 made %d",
				w, res.Evaluations, base.Evaluations)
		}
	}
}

// TestStochasticCancelledBeforeAnyTrial pins the fix for the early-cancel
// contract: no valid deployment means ErrNoValidDeployment alongside the
// context error, a nil deployment, and a zero — never infinite — score.
func TestStochasticCancelledBeforeAnyTrial(t *testing.T) {
	s, _ := genSystem(t, 5, 20, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := (&Stochastic{}).Run(ctx, s, nil, Config{
		Objective: availability(), Seed: 1, Trials: 16, Workers: 4,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !errors.Is(err, ErrNoValidDeployment) {
		t.Fatalf("err = %v, want ErrNoValidDeployment", err)
	}
	if res.Deployment != nil {
		t.Fatalf("Deployment = %v, want nil", res.Deployment)
	}
	if math.IsInf(res.Score, 0) || res.Score != 0 {
		t.Fatalf("Score = %v, want 0", res.Score)
	}
}
