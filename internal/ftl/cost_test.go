package ftl_test

import (
	"math/rand"
	"testing"
	"time"

	"uflip/internal/ftl"
	"uflip/internal/profile"
)

// referenceCost is the pricing formula CostModel.Cost replaced, verbatim:
// model and vector by value, every term computed whether or not its counts
// are zero. (It lives in the external test package because the profiles it is
// checked over import package ftl.)
func referenceCost(m ftl.CostModel, o ftl.Ops) time.Duration {
	div := func(d time.Duration, p float64) time.Duration {
		if p <= 1 {
			return d
		}
		return time.Duration(float64(d) / p)
	}
	randReads := o.PageReads - o.SeqPageReads
	if randReads < 0 {
		randReads = 0
	}
	seqFactor := m.SeqReadFactor
	if seqFactor <= 0 || seqFactor > 1 {
		seqFactor = 1
	}
	var d time.Duration
	d += div(time.Duration(randReads)*m.ReadPage, m.ReadParallel)
	d += div(time.Duration(float64(o.SeqPageReads)*seqFactor*float64(m.ReadPage)), m.ReadParallel)
	d += div(time.Duration(o.PagePrograms)*m.ProgramPage, m.ProgramParallel)
	d += div(time.Duration(o.MergeReads)*m.ReadPage+time.Duration(o.MergePrograms)*m.ProgramPage, m.MergeParallel)
	d += div(time.Duration(o.Erases)*m.EraseBlock, m.EraseParallel)
	d += time.Duration(o.MapFlushes) * m.MapFlush
	d += time.Duration(o.SeqMapFlushes) * m.MapFlushSeq
	d += time.Duration(o.RAMBytes) * m.RAMPerByte
	d += o.Stall
	return d
}

func referenceReclaimCost(m ftl.CostModel, livePages int) time.Duration {
	return referenceCost(m, ftl.Ops{MergeReads: livePages, MergePrograms: livePages, Erases: 1})
}

// TestCostMatchesReferenceFormula: pricing through pointers and skipping the
// zero terms yields the reference formula's duration to the nanosecond, for
// every profile's cost model and the edge models, over Ops vectors with each
// field independently zero or not (SeqPageReads above PageReads included).
func TestCostMatchesReferenceFormula(t *testing.T) {
	var models []ftl.CostModel
	all := profile.All()
	if len(all) != 11 {
		t.Fatalf("%d profiles, want the paper's eleven", len(all))
	}
	for _, p := range all {
		models = append(models, p.Cost)
	}
	base := all[0].Cost
	for _, par := range []float64{-1, 0, 0.5, 1, 1.0000001, 3.7} {
		m := base
		m.ReadParallel, m.ProgramParallel, m.MergeParallel, m.EraseParallel = par, par, par, par
		for _, seq := range []float64{-0.5, 0, 0.3, 1, 1.5} {
			m.SeqReadFactor = seq
			models = append(models, m)
		}
	}
	rng := rand.New(rand.NewSource(19))
	count := func() int {
		if rng.Intn(2) == 0 {
			return 0
		}
		return rng.Intn(4096) + 1
	}
	for i := 0; i < 4000; i++ {
		o := ftl.Ops{
			PageReads: count(), SeqPageReads: count(), PagePrograms: count(),
			MergeReads: count(), MergePrograms: count(), Erases: count(),
			MapFlushes: count(), SeqMapFlushes: count(),
			RAMBytes: int64(count()) * 512, Stall: time.Duration(count()) * time.Microsecond,
		}
		for j := range models {
			m := &models[j]
			if got, want := m.Cost(&o), referenceCost(*m, o); got != want {
				t.Fatalf("model %d ops %+v: Cost %d ns, reference %d ns", j, o, got, want)
			}
			if got, want := m.ReclaimCost(o.MergeReads), referenceReclaimCost(*m, o.MergeReads); got != want {
				t.Fatalf("model %d: ReclaimCost(%d) %d ns, reference %d ns", j, o.MergeReads, got, want)
			}
		}
	}
}
