package main

import "testing"

// A write's tree: the UM's directory write, then a concurrent fan-out to
// both devices (partly overlapping), then the write-back.
func writeTrace() *trace {
	const op = "cn=x,o=lucent#0"
	return newTrace([]span{
		{Name: "ltap.write", Op: op, Start: 0, End: 100},
		{Name: "ltap.action", Op: op, Start: 10, End: 90},
		{Name: "um.update", Op: op, Start: 20, End: 80},
		{Name: "um.backing", Op: op, Start: 22, End: 30},
		{Name: "dir.write", Op: op, Start: 23, End: 29},
		{Name: "device.pbx", Op: op, Start: 35, End: 60},
		{Name: "device.msgplat", Op: op, Start: 40, End: 70},
		{Name: "um.backing", Op: op, Start: 72, End: 78},
		{Name: "device.pbx", Op: "cn=y,o=lucent#0", Start: 36, End: 61},
	})
}

func TestSpanParentsFollowLayerNesting(t *testing.T) {
	tr := writeTrace()
	want := []int{-1, 0, 1, 2, 3, 2, 2, 2, -1}
	for i, p := range want {
		if tr.spans[i].Parent != p {
			t.Errorf("span %d (%s): parent %d, want %d", i, tr.spans[i].Name, tr.spans[i].Parent, p)
		}
	}
	if r := tr.root("cn=x,o=lucent#0"); r != 0 {
		t.Errorf("root %d, want 0", r)
	}
}

func TestSelfTimeNestedAndConcurrentChildren(t *testing.T) {
	tr := writeTrace()
	for i, want := range map[int]int64{
		0: 100 - 80,          // the action span covers 80
		1: 80 - 60,           // the UM span covers 60
		2: 60 - (8 + 35 + 6), // backing 8, the overlapping devices 35 as one, backing 6
		3: 8 - 6,             // the directory write inside
		5: 25, 6: 30, 7: 6, 4: 6,
	} {
		if got := tr.selfTime(i); got != want {
			t.Errorf("self time of span %d (%s) = %d, want %d", i, tr.spans[i].Name, got, want)
		}
	}
	// Blocking path: root 20 + action 20 + UM 11 + first backing 8 + the
	// slower device 30 + write-back 6 = 95; the 5 units where only the
	// faster device ran (35..40) are off the path.
	if got := tr.blocking(0); got != 95 {
		t.Errorf("blocking path = %d, want 95", got)
	}
}

func TestCoveredMergesAndClips(t *testing.T) {
	spans := []span{{Start: 0, End: 10}, {Start: 5, End: 15}, {Start: 20, End: 30}, {Start: 25, End: 40}, {Start: -5, End: 2}}
	if got := covered(0, 35, spans, []int{0, 1, 2, 3, 4}); got != 15+15 {
		t.Errorf("covered = %d, want 30", got)
	}
	if got := covered(0, 100, spans, nil); got != 0 {
		t.Errorf("covered of nothing = %d", got)
	}
}
