package core

import (
	"strings"
	"testing"
)

func TestRegistryShape(t *testing.T) {
	reg := Registry()
	if len(reg) < 14 {
		t.Fatalf("only %d activities registered", len(reg))
	}
	perModule := make(map[int]int)
	names := make(map[string]bool)
	for _, a := range reg {
		if a.Module < 1 || a.Module > 5 {
			t.Fatalf("activity %q in module %d", a.Name, a.Module)
		}
		if a.Name == "" || a.Description == "" || a.Run == nil || a.DefaultNP < 1 {
			t.Fatalf("incomplete activity %+v", a)
		}
		if names[a.Name] {
			t.Fatalf("duplicate activity name %q", a.Name)
		}
		names[a.Name] = true
		perModule[a.Module]++
	}
	for m := 1; m <= 5; m++ {
		if perModule[m] == 0 {
			t.Fatalf("module %d has no activities", m)
		}
	}
}

func TestFind(t *testing.T) {
	if _, ok := Find("ping-pong"); !ok {
		t.Fatal("ping-pong not found")
	}
	if _, ok := Find("no-such-activity"); ok {
		t.Fatal("bogus activity found")
	}
}

func TestEveryActivityRuns(t *testing.T) {
	for _, a := range Registry() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			summary, snap, err := a.Launch(0, false)
			if err != nil {
				t.Fatal(err)
			}
			if summary == "" {
				t.Fatal("empty summary")
			}
			if snap.Size != a.DefaultNP {
				t.Fatalf("snapshot size %d, want %d", snap.Size, a.DefaultNP)
			}
		})
	}
}

func TestActivityCustomNP(t *testing.T) {
	a, _ := Find("ring")
	_, snap, err := a.Launch(7, false)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Size != 7 {
		t.Fatalf("snapshot size %d", snap.Size)
	}
}

func TestActivityOverTCP(t *testing.T) {
	a, _ := Find("ping-pong")
	summary, _, err := a.Launch(2, true)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(summary, "RTT") {
		t.Fatalf("summary %q", summary)
	}
}

// TestLaunchSnapshotDeterministic: Launch reads the world's counters
// after every rank has exited, so repeated launches of a deterministic
// activity report identical wire bytes and message counts. A snapshot
// read from rank 0 mid-run would race the other ranks' final sends.
func TestLaunchSnapshotDeterministic(t *testing.T) {
	a, _ := Find("kmeans-weighted-means")
	_, first, err := a.Launch(0, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 20; i++ {
		_, snap, err := a.Launch(0, false)
		if err != nil {
			t.Fatal(err)
		}
		if snap.TotalWire != first.TotalWire || snap.TotalMsgs != first.TotalMsgs {
			t.Fatalf("launch %d: %d wire bytes in %d msgs, launch 0: %d in %d",
				i, snap.TotalWire, snap.TotalMsgs, first.TotalWire, first.TotalMsgs)
		}
	}
}

// TestVerifyTableII is the paper-fidelity check: the module
// implementations must invoke exactly the primitive sets Table II
// prescribes (required primitives present, nothing outside the R/N sets
// beyond timing infrastructure).
func TestVerifyTableII(t *testing.T) {
	checks, err := VerifyTableII()
	if err != nil {
		t.Fatal(err)
	}
	if len(checks) != 5 {
		t.Fatalf("%d module checks", len(checks))
	}
	for _, mc := range checks {
		if !mc.OK() {
			t.Errorf("module %d: missing required %v, unexpected %v (used %v)",
				mc.Module, mc.MissingRequired, mc.Unexpected, mc.Used)
		}
		if len(mc.Used) == 0 {
			t.Errorf("module %d used no primitives", mc.Module)
		}
	}
}

func TestExtensionsRun(t *testing.T) {
	exts := Extensions()
	if len(exts) < 3 {
		t.Fatalf("only %d extension activities", len(exts))
	}
	for _, a := range exts {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			if a.Module < 6 || a.Module > 8 {
				t.Fatalf("extension %q in module %d", a.Name, a.Module)
			}
			if !a.Discretionary {
				t.Fatalf("extension %q must be exempt from the Table II check", a.Name)
			}
			summary, _, err := a.Launch(0, false)
			if err != nil {
				t.Fatal(err)
			}
			if summary == "" {
				t.Fatal("empty summary")
			}
		})
	}
}

func TestFindLocatesExtensions(t *testing.T) {
	if _, ok := Find("stencil-overlapped"); !ok {
		t.Fatal("extension not findable")
	}
	if got := len(All()); got != len(Registry())+len(Extensions()) {
		t.Fatalf("All() has %d activities", got)
	}
}

func TestScalingStudy(t *testing.T) {
	a, _ := Find("ring")
	series, err := ScalingStudy(a, []int{1, 2, 4}, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(series.Points) != 3 {
		t.Fatalf("%d points", len(series.Points))
	}
	for _, pt := range series.Points {
		if pt.Time <= 0 {
			t.Fatalf("non-positive time at p=%d", pt.P)
		}
	}
	report, err := ScalingReport(series)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(report, "speedup") || !strings.Contains(report, "Karp") {
		t.Fatalf("report:\n%s", report)
	}
}

func TestScalingStudyValidation(t *testing.T) {
	a, _ := Find("ring")
	if _, err := ScalingStudy(a, []int{0}, 1, false); err == nil {
		t.Fatal("zero rank count accepted")
	}
}

func TestScalingReportSinglePoint(t *testing.T) {
	a, _ := Find("ring")
	series, err := ScalingStudy(a, []int{2}, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ScalingReport(series); err != nil {
		t.Fatal(err)
	}
}

func TestWeakScalingStudy(t *testing.T) {
	sa, ok := FindSized("kmeans")
	if !ok {
		t.Fatal("kmeans sized workload missing")
	}
	series, err := WeakScalingStudy(sa, []int{1, 2}, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(series.Points) != 2 {
		t.Fatalf("%d points", len(series.Points))
	}
	report, err := WeakScalingReport(series)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(report, "weak efficiency") {
		t.Fatalf("report:\n%s", report)
	}
}

func TestSizedRegistryBuilds(t *testing.T) {
	for _, sa := range SizedRegistry() {
		a := sa.Build(2)
		if _, _, err := a.Launch(2, false); err != nil {
			t.Fatalf("%s: %v", sa.Name, err)
		}
	}
	if _, ok := FindSized("nonsense"); ok {
		t.Fatal("bogus sized workload found")
	}
}
