package settings

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/appkit"
	"repro/internal/describe"
	"repro/internal/forest"
	"repro/internal/modelstore"
	"repro/internal/uia"
	"repro/internal/ung"
)

func factory() *appkit.App { return New().App }

func TestDefaultsAndToggles(t *testing.T) {
	s := New()
	if s.State.NightLight || s.State.Theme != "Light" {
		t.Fatalf("unexpected defaults: %+v", s.State)
	}
	nl := s.Win.FindByAutomationID("tglNightLight")
	if nl == nil {
		t.Fatal("night light toggle missing")
	}
	if err := s.Desk.Click(nl); err != nil {
		t.Fatal(err)
	}
	if !s.State.NightLight {
		t.Fatal("click did not enable night light")
	}
	if s.State.Theme == "Dark" {
		t.Fatal("night light must not change the theme")
	}
}

func TestAirplaneModeDisablesWiFi(t *testing.T) {
	s := New()
	s.ActivateTabByName("Network & internet")
	air := s.Win.FindByAutomationID("tglAirplane")
	if err := s.Desk.Click(air); err != nil {
		t.Fatal(err)
	}
	if !s.State.Airplane || s.State.WiFi {
		t.Fatalf("airplane=%v wifi=%v", s.State.Airplane, s.State.WiFi)
	}
}

func TestNetworkResetRestoresDefaults(t *testing.T) {
	s := New()
	s.State.VPN = true
	s.State.ProxyOn = true
	s.State.ProxyServer = "proxy.corp:8080"
	s.State.WiFi = false
	s.resetNetwork()
	if s.State.NetworkResets != 1 {
		t.Fatalf("resets = %d", s.State.NetworkResets)
	}
	if s.State.VPN || s.State.ProxyOn || s.State.ProxyServer != "" || !s.State.WiFi {
		t.Fatalf("reset left state dirty: %+v", s.State)
	}
}

func TestTimeZonePickGatedByAutomaticMode(t *testing.T) {
	s := New()
	s.ActivateTabByName("Time & language")
	cb := s.Win.FindByAutomationID("cbTimeZone")
	list := cb.FindByAutomationID("cbTimeZoneList")
	s.MaterializeAll() // the zone items are built on first expansion
	var hawaii *uia.Element
	for _, it := range list.Children() {
		if it.Name() == "(UTC-10:00) Hawaii" {
			hawaii = it
		}
	}
	if hawaii == nil {
		t.Fatal("Hawaii zone missing")
	}
	// Automatic mode on: the pick is ignored.
	if err := s.Desk.Click(cb); err != nil { // expand
		t.Fatal(err)
	}
	if err := s.Desk.Click(hawaii); err != nil {
		t.Fatal(err)
	}
	if s.State.TimeZone != "(UTC+00:00) London" {
		t.Fatalf("zone changed while automatic: %q", s.State.TimeZone)
	}
	// Disable automatic, pick again.
	if err := s.Desk.Click(s.Win.FindByAutomationID("tglAutoTimeZone")); err != nil {
		t.Fatal(err)
	}
	if err := s.Desk.Click(cb); err != nil {
		t.Fatal(err)
	}
	if err := s.Desk.Click(hawaii); err != nil {
		t.Fatal(err)
	}
	if s.State.TimeZone != "(UTC-10:00) Hawaii" {
		t.Fatalf("zone = %q", s.State.TimeZone)
	}
}

func TestAccentVsBackgroundBinding(t *testing.T) {
	s := New()
	s.ActivateTabByName("Personalization")
	s.applyColor(s.App, "") // no binding: no-op
	open := func(autoID string) {
		btn := s.Win.FindByAutomationID(autoID)
		if btn == nil {
			t.Fatalf("%s missing", autoID)
		}
		if err := s.Desk.Click(btn); err != nil {
			t.Fatal(err)
		}
	}
	pick := func(color string) {
		for _, w := range s.AllPopupWindows() {
			if el := w.FindByName(color); el != nil && s.Desk.IsOpen(w) {
				if err := s.Desk.Click(el); err != nil {
					t.Fatal(err)
				}
				return
			}
		}
		t.Fatalf("color %q not reachable", color)
	}
	open("btnAccentColor")
	pick("Purple")
	if s.State.AccentColor != "Purple" || s.State.BackgroundColor == "Purple" {
		t.Fatalf("accent path broken: %+v", s.State)
	}
	open("btnBackgroundColor")
	pick("Gold")
	if s.State.BackgroundColor != "Gold" || s.State.AccentColor != "Purple" {
		t.Fatalf("background path broken: %+v", s.State)
	}
}

func TestBlocklistCoversExternalActions(t *testing.T) {
	s := New()
	if s.BlocklistSize() == 0 {
		t.Fatal("settings app has no access blocklist")
	}
	for _, id := range []string{"btnSignOut", "btnCheckUpdates"} {
		el := s.Win.FindByAutomationID(id)
		if el == nil {
			t.Fatalf("%s missing", id)
		}
		if !s.Blocked(el) {
			t.Errorf("%s not blocklisted", id)
		}
	}
}

// TestModelstoreSnapshotRoundTrip: the app persists through the snapshot
// codec and warm rebuilds spend zero rip clicks.
func TestModelstoreSnapshotRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("app-scale rip")
	}
	dir := t.TempDir()
	cold := modelstore.NewPersistent(dir)
	b1, err := cold.Build("Settings", factory, modelstore.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if b1.FromSnapshot {
		t.Fatal("first build cannot come from a snapshot")
	}
	warm := modelstore.NewPersistent(dir)
	b2, err := warm.Build("Settings", factory, modelstore.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !b2.FromSnapshot {
		t.Fatal("second build did not reuse the snapshot")
	}
	if b2.RipStats.Clicks != 0 {
		t.Fatalf("warm build spent %d rip clicks, want 0", b2.RipStats.Clicks)
	}
	g1, _ := ung.EncodeBinary(b1.Graph)
	g2, _ := ung.EncodeBinary(b2.Graph)
	if !bytes.Equal(g1, g2) {
		t.Fatal("snapshot-restored graph differs from the ripped one")
	}
}

// TestCoreTopologyPruning: the time-zone list is a large enumeration and the
// color-profile leaves sit beyond the core depth, so both are absent from
// the core topology and present in the full one — the further_query stress
// this app exists to provide.
func TestCoreTopologyPruning(t *testing.T) {
	if testing.Short() {
		t.Skip("app-scale rip")
	}
	g, _, err := ung.Rip(New().App, ung.Config{})
	if err != nil {
		t.Fatal(err)
	}
	f, _, err := forest.Transform(g, forest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := describe.NewModel(f)
	core := m.Serialize(describe.CoreOptions())
	full := m.Serialize(describe.FullOptions())
	// Note: the serializer renders structural parentheses as ⟨⟩, so match
	// on paren-free fragments.
	for _, pruned := range []string{"Hawaii", "Adobe RGB"} {
		if strings.Contains(core, pruned) {
			t.Errorf("%q should be pruned from the core topology", pruned)
		}
		if !strings.Contains(full, pruned) {
			t.Errorf("%q missing from the full topology", pruned)
		}
	}
	if !strings.Contains(core, "Night light") {
		t.Error("core topology missing shallow functional controls")
	}
}
