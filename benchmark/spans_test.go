package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	ms := func(n int64) int64 { return n * int64(time.Millisecond) }
	spans := []span{
		{Name: "job", ID: 0, Parent: -1, Start: ms(0), End: ms(100)},
		// Two workers under one parent overlap from 30 to 50: the parent is
		// covered from 10 to 70, once.
		{Name: "execute", ID: 1, Parent: 0, Start: ms(10), End: ms(90)},
		{Name: "clone", ID: 2, Parent: 1, Start: ms(10), End: ms(50)},
		{Name: "clone", ID: 3, Parent: 1, Start: ms(30), End: ms(70)},
		// A child fully inside another adds nothing.
		{Name: "clone", ID: 4, Parent: 1, Start: ms(35), End: ms(45)},
		// A child that outlives its parent is clipped to it.
		{Name: "late", ID: 5, Parent: 1, Start: ms(85), End: ms(120)},
		// A second, disjoint child of the root.
		{Name: "render", ID: 6, Parent: 0, Start: ms(92), End: ms(98)},
	}
	got := selfTimes(spans)
	for _, tc := range []struct {
		name               string
		count              int
		total, self, maxim time.Duration
	}{
		{"job", 1, 100 * time.Millisecond, 14 * time.Millisecond, 100 * time.Millisecond}, // 100 - 80 - 6
		{"execute", 1, 80 * time.Millisecond, 15 * time.Millisecond, 80 * time.Millisecond},
		{"clone", 3, 90 * time.Millisecond, 90 * time.Millisecond, 40 * time.Millisecond},
		{"late", 1, 35 * time.Millisecond, 35 * time.Millisecond, 35 * time.Millisecond},
		{"render", 1, 6 * time.Millisecond, 6 * time.Millisecond, 6 * time.Millisecond},
	} {
		st := got[tc.name]
		if st.Count != tc.count || st.Total != tc.total || st.Self != tc.self || st.Max != tc.maxim {
			t.Errorf("%s: %+v, want count %d total %v self %v max %v", tc.name, st, tc.count, tc.total, tc.self, tc.maxim)
		}
	}
}

func TestJobTraceParentsAndConcurrentAdds(t *testing.T) {
	jt := newJobTrace(3, time.Now())
	root := jt.begin("job", -1)
	exec := jt.begin("engine.execute", root)
	done := make(chan struct{})
	for range 4 {
		go func() {
			now := time.Now()
			jt.add("engine.clone", exec, now, now.Add(time.Millisecond))
			done <- struct{}{}
		}()
	}
	for range 4 {
		<-done
	}
	jt.end(exec)
	jt.end(root)
	if len(jt.spans) != 6 {
		t.Fatalf("%d spans, want 6", len(jt.spans))
	}
	for i, s := range jt.spans {
		if s.ID != i || s.Job != 3 || s.End < s.Start {
			t.Errorf("span %d: %+v", i, s)
		}
	}
	if st := selfTimes(jt.spans)["engine.clone"]; st.Count != 4 || st.Total != 4*time.Millisecond {
		t.Errorf("clone spans: %+v", st)
	}
}

func TestReservoirIsBounded(t *testing.T) {
	r := newReservoir(1)
	batch := make([]span, 1000)
	for i := range 20 {
		for j := range batch {
			batch[j] = span{Name: "s", Job: i, ID: j}
		}
		r.offer(batch)
	}
	if r.seen != 20000 || len(r.spans) != reservoirCap {
		t.Fatalf("seen %d kept %d, want 20000 and %d", r.seen, len(r.spans), reservoirCap)
	}
	late := 0
	for _, s := range r.spans {
		if s.Job >= 10 {
			late++
		}
	}
	// A uniform sample keeps about half from the second half of the stream.
	if late < reservoirCap/3 || late > 2*reservoirCap/3 {
		t.Errorf("%d of %d kept spans come from the second half", late, reservoirCap)
	}
}
