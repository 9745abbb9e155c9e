package osworld

import "testing"

// TestPoolKeepsOneIdleInstance: sessions of one app that overlap each get
// an instance of their own; the first one released is kept and reused, and
// one released while another is idle is dropped without the reset.
func TestPoolKeepsOneIdleInstance(t *testing.T) {
	task, _ := ByID("files-rename")
	task.Checkout() // hold whatever idle instance of the app earlier tests left

	reused0, built0 := PoolStats()
	first, second := task.Checkout(), task.Checkout()
	if first == second || first.undo == nil || second.undo == nil {
		t.Fatal("overlapping checkouts did not get recording instances of their own")
	}
	first.Release()
	win := second.App.Win
	name := win.Name()
	win.SetName("renamed in session")
	second.Release()
	if win.Name() == name {
		t.Error("an instance released while another is idle was reset")
	}
	if again := task.Checkout(); again != first {
		t.Error("checkout did not reuse the instance released first")
	}
	if reused, built := PoolStats(); reused-reused0 != 1 || built-built0 != 2 {
		t.Errorf("counted %d reused and %d built, want 1 and 2", reused-reused0, built-built0)
	}
}
