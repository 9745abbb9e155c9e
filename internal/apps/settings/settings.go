// Package settings implements a simulated OS Settings application: a deep
// category tree of panels behind a tab bar, dense with toggles, dropdowns,
// sub-dialogs and confirm dialogs. It is the first non-Office member of the
// application catalog and deliberately stresses a different interface shape
// than the ribbon apps do: long vertical chains of nested containers (core
// depth limits and further_query), large enumerations (time zones,
// languages), destructive actions gated behind confirm dialogs, and the
// canonical control-semantics confusions of settings UIs (night light vs
// dark mode, accent color vs background color).
package settings

import (
	"fmt"

	"repro/internal/appkit"
	"repro/internal/office/catalog"
)

// Color-picker bindings: the same picker cells set different properties
// depending on the opener path (paper Challenge #1).
const (
	BindAccentColor     = "accent-color"
	BindBackgroundColor = "background-color"
)

// State is the settings model. All panel interaction mutates it and task
// verification reads it back.
type State struct {
	// System.
	Brightness    float64
	NightLight    bool
	NightLightStr float64
	Resolution    string
	Scale         string
	Volume        float64
	Mute          bool
	OutputDevice  string
	Notifications bool
	DoNotDisturb  bool
	PowerMode     string
	SleepAfter    string
	StorageSense  bool
	ColorProfile  string

	// Network & internet.
	WiFi          bool
	Airplane      bool
	DataSaver     bool
	VPN           bool
	ProxyOn       bool
	ProxyServer   string
	Metered       bool
	NetworkResets int

	// Personalization.
	Theme           string
	AccentColor     string
	BackgroundColor string
	Wallpaper       string

	// Privacy & security.
	Location        bool
	Camera          bool
	Microphone      bool
	AdID            bool
	DiagnosticData  string
	ActivityHistory bool
	HistoryClears   int

	// Time & language.
	AutoTimeZone bool
	TimeZone     string
	DateFormat   string
	Language     string
	Region       string
}

// NewState returns the out-of-box defaults.
func NewState() *State {
	return &State{
		Brightness: 50, NightLightStr: 40,
		Resolution: "1920 x 1080", Scale: "100%",
		Volume: 60, OutputDevice: "Speakers",
		Notifications: true,
		PowerMode:     "Balanced", SleepAfter: "10 minutes",
		ColorProfile: "sRGB",
		WiFi:         true,
		Theme:        "Light", AccentColor: "Blue", BackgroundColor: "White",
		Wallpaper: "Bloom",
		Location:  true, Camera: true, Microphone: true, AdID: true,
		DiagnosticData: "Required", ActivityHistory: true,
		AutoTimeZone: true, TimeZone: "(UTC+00:00) London",
		DateFormat: "dd/MM/yyyy", Language: "English (United States)",
		Region: "United States",
	}
}

// App is the simulated Settings application.
type App struct {
	*appkit.App
	State *State
}

// TimeZones is the zone list offered by the time settings; it is longer
// than appkit.LargeEnumThreshold on purpose, so the zone items are pruned
// from the core topology and must be fetched with further_query (§3.3).
func TimeZones() []string {
	bases := []string{
		"(UTC-12:00) International Date Line West",
		"(UTC-11:00) Midway Island", "(UTC-10:00) Hawaii",
		"(UTC-09:00) Alaska", "(UTC-08:00) Pacific Time",
		"(UTC-07:00) Mountain Time", "(UTC-06:00) Central Time",
		"(UTC-05:00) Eastern Time", "(UTC-04:00) Atlantic Time",
		"(UTC-03:30) Newfoundland", "(UTC-03:00) Brasilia",
		"(UTC-02:00) Mid-Atlantic", "(UTC-01:00) Azores",
		"(UTC+00:00) London", "(UTC+01:00) Berlin", "(UTC+02:00) Cairo",
		"(UTC+03:00) Moscow", "(UTC+03:30) Tehran", "(UTC+04:00) Dubai",
		"(UTC+04:30) Kabul", "(UTC+05:00) Karachi", "(UTC+05:30) New Delhi",
		"(UTC+05:45) Kathmandu", "(UTC+06:00) Dhaka", "(UTC+06:30) Yangon",
		"(UTC+07:00) Bangkok", "(UTC+08:00) Beijing", "(UTC+09:00) Tokyo",
		"(UTC+09:30) Darwin", "(UTC+10:00) Sydney", "(UTC+11:00) Solomon Is.",
		"(UTC+12:00) Auckland", "(UTC+13:00) Nuku'alofa",
	}
	out := make([]string, 0, 2*len(bases))
	out = append(out, bases...)
	for _, b := range bases {
		out = append(out, b+" — Daylight")
	}
	return out
}

// Reset puts the settings values where New would: every field at its
// default. The UI is the caller's to restore (a pooled instance rewinds its
// undo log).
func (s *App) Reset() { s.State = NewState() }

// New assembles the Settings simulator.
func New() *App {
	s := &App{App: appkit.New("Settings"), State: NewState()}

	picker := s.ColorPicker("clrPickerS", "Colors", s.applyColor)

	s.buildSystem()
	s.buildNetwork()
	s.buildPersonalization(picker)
	s.buildApps()
	s.buildPrivacy()
	s.buildTimeLanguage()
	s.buildAccounts()
	s.buildBody()
	return s
}

func (s *App) applyColor(a *appkit.App, color string) {
	switch a.Binding() {
	case BindAccentColor:
		s.State.AccentColor = color
	case BindBackgroundColor:
		s.State.BackgroundColor = color
	}
}

func (s *App) buildSystem() {
	sys := s.Tab("tabSystem", "System")

	disp := sys.Group("grpDisplay", "Display")
	br := disp.Spinner("spnBrightness", "Brightness", 0, 100, s.State.Brightness,
		func(_ *appkit.App, v float64) { s.State.Brightness = v })
	br.SetDescription("Change the brightness of the built-in display")
	nl := disp.ToggleButton("tglNightLight", "Night light",
		func(*appkit.App) bool { return s.State.NightLight },
		func(_ *appkit.App, on bool) { s.State.NightLight = on })
	nl.SetDescription("Use warmer colors to help block blue light")
	nlDlg := s.NewDialog("dlgNightLight", "Night light settings")
	np := nlDlg.Panel()
	np.Spinner("spnNightStrength", "Strength", 0, 100, s.State.NightLightStr,
		func(_ *appkit.App, v float64) { s.State.NightLightStr = v })
	np.ComboBox("cbNightSchedule", "Schedule night light",
		[]string{"Off", "Sunset to sunrise", "Set hours"}, nil)
	nlDlg.AddOKCancel(nil)
	disp.DialogButton("btnNightLightOptions", "Night light settings", nlDlg, nil)
	disp.ComboBox("cbResolution", "Display resolution",
		[]string{"3840 x 2160", "2560 x 1440", "1920 x 1080", "1680 x 1050",
			"1600 x 900", "1440 x 900", "1366 x 768", "1280 x 720"},
		func(_ *appkit.App, v string) { s.State.Resolution = v })
	disp.ComboBox("cbScale", "Scale",
		[]string{"100%", "125%", "150%", "175%", "200%"},
		func(_ *appkit.App, v string) { s.State.Scale = v })

	// Advanced display → color management → profile: a deliberately deep
	// chain. The profile items sit beyond the core-topology depth limit, so
	// reaching them declaratively requires a further_query round.
	adv := s.NewDialog("dlgAdvancedDisplay", "Advanced display")
	ap := adv.Panel()
	info := ap.Pane("pnlDisplayInfo", "Display information")
	info.Label("Internal Display: 1920 x 1080, 60 Hz")
	info.ComboBox("cbRefreshRate", "Refresh rate",
		[]string{"60 Hz", "75 Hz", "120 Hz", "144 Hz"}, nil)
	colorMgmt := ap.Pane("pnlColorManagement", "Color management")
	profDlg := s.NewDialog("dlgColorProfile", "Color profile")
	pp := profDlg.Panel()
	profList := pp.Pane("pnlProfiles", "Installed profiles")
	for _, prof := range []string{"sRGB", "Adobe RGB", "Display P3", "Rec. 709", "ProPhoto RGB"} {
		prof := prof
		it := profList.MenuItem("", prof, func(*appkit.App) { s.State.ColorProfile = prof })
		it.SetDescription("Use the " + prof + " color profile")
	}
	profDlg.AddOKCancel(nil)
	colorMgmt.DialogButton("btnColorProfile", "Color profile", profDlg, nil)
	adv.AddOKCancel(nil)
	disp.DialogButton("btnAdvancedDisplay", "Advanced display", adv, nil)

	snd := sys.Group("grpSound", "Sound")
	snd.Spinner("spnVolume", "Volume", 0, 100, s.State.Volume,
		func(_ *appkit.App, v float64) { s.State.Volume = v })
	snd.ToggleButton("tglMute", "Mute",
		func(*appkit.App) bool { return s.State.Mute },
		func(_ *appkit.App, on bool) { s.State.Mute = on })
	snd.ComboBox("cbOutputDevice", "Output device",
		[]string{"Speakers", "Headphones", "Monitor Audio", "Bluetooth Speaker"},
		func(_ *appkit.App, v string) { s.State.OutputDevice = v })
	mixDlg := s.NewDialog("dlgVolumeMixer", "Volume mixer")
	mp := mixDlg.Panel()
	for i, app := range []string{"System Sounds", "Browser", "Music Player", "Video Call"} {
		mp.Spinner(fmt.Sprintf("spnMix%d", i), app+" volume", 0, 100, 50, nil)
	}
	mixDlg.AddOKCancel(nil)
	snd.DialogButton("btnVolumeMixer", "Volume mixer", mixDlg, nil)

	ntf := sys.Group("grpNotifications", "Notifications")
	ntf.ToggleButton("tglNotifications", "Notifications",
		func(*appkit.App) bool { return s.State.Notifications },
		func(_ *appkit.App, on bool) { s.State.Notifications = on })
	dnd := ntf.ToggleButton("tglDoNotDisturb", "Do not disturb",
		func(*appkit.App) bool { return s.State.DoNotDisturb },
		func(_ *appkit.App, on bool) { s.State.DoNotDisturb = on })
	dnd.SetDescription("Silence notification banners and sounds")
	priDlg := s.NewDialog("dlgPriorityList", "Priority notifications")
	for _, app := range []string{"Calendar", "Mail", "Messages", "Reminders", "Phone"} {
		priDlg.Panel().CheckBox("", "Allow "+app,
			func(*appkit.App) bool { return false }, func(*appkit.App, bool) {})
	}
	priDlg.AddOKCancel(nil)
	ntf.DialogButton("btnPriorityList", "Set priority notifications", priDlg, nil)

	pwr := sys.Group("grpPower", "Power & battery")
	pwr.ComboBox("cbPowerMode", "Power mode",
		[]string{"Best power efficiency", "Balanced", "Best performance"},
		func(_ *appkit.App, v string) { s.State.PowerMode = v })
	pwr.ComboBox("cbSleepAfter", "Put my device to sleep after",
		[]string{"Never", "5 minutes", "10 minutes", "30 minutes", "1 hour"},
		func(_ *appkit.App, v string) { s.State.SleepAfter = v })

	sto := sys.Group("grpStorage", "Storage")
	sto.ToggleButton("tglStorageSense", "Storage Sense",
		func(*appkit.App) bool { return s.State.StorageSense },
		func(_ *appkit.App, on bool) { s.State.StorageSense = on })
	cleanDlg := s.NewDialog("dlgCleanup", "Cleanup recommendations")
	cleanDlg.Panel().Label("Temporary files: 1.2 GB")
	cleanDlg.Panel().CheckBox("chkCleanTemp", "Temporary files",
		func(*appkit.App) bool { return true }, func(*appkit.App, bool) {})
	cleanDlg.AddOKCancel(nil)
	sto.DialogButton("btnCleanup", "Cleanup recommendations", cleanDlg, nil)

	upd := sys.Group("grpUpdate", "Windows Update")
	check := upd.Button("btnCheckUpdates", "Check for updates", nil)
	check.SetDescription("Contact the update service (network side effects)")
	// Checking for updates reaches outside the machine under test; the
	// modeling operator blocklists it (paper §4.1).
	s.Block(check.ControlID())
	upd.ComboBox("cbActiveHours", "Active hours",
		[]string{"8:00 to 17:00", "9:00 to 18:00", "Automatically adjust"}, nil)
}

func (s *App) buildNetwork() {
	net := s.Tab("tabNetwork", "Network & internet")

	wifi := net.Group("grpWiFi", "Wi-Fi")
	wt := wifi.ToggleButton("tglWiFi", "Wi-Fi",
		func(*appkit.App) bool { return s.State.WiFi },
		func(_ *appkit.App, on bool) { s.State.WiFi = on })
	wt.SetDescription("Turn wireless networking on or off")
	// Show available networks reveals an inline pane: a functional control
	// the ripper records as a navigation (non-leaf) node.
	known := wifi.Pane("pnlKnownNetworks", "Known networks")
	known.El.SetVisible(false)
	for _, n := range []string{"HomeBase-5G", "Office-Guest", "CafeHotspot", "LabNet"} {
		known.Pane("pnlNet"+n, n).Label("Saved network: " + n)
	}
	wifi.NavButton("btnShowNetworks", "Show available networks", func(*appkit.App) {
		known.El.SetVisible(true)
	})

	air := net.Group("grpAirplane", "Airplane mode")
	air.ToggleButton("tglAirplane", "Airplane mode",
		func(*appkit.App) bool { return s.State.Airplane },
		func(_ *appkit.App, on bool) {
			s.State.Airplane = on
			if on {
				s.State.WiFi = false
			}
		})
	air.ToggleButton("tglDataSaver", "Data saver",
		func(*appkit.App) bool { return s.State.DataSaver },
		func(_ *appkit.App, on bool) { s.State.DataSaver = on })
	air.ToggleButton("tglMetered", "Metered connection",
		func(*appkit.App) bool { return s.State.Metered },
		func(_ *appkit.App, on bool) { s.State.Metered = on })

	vpn := net.Group("grpVPNProxy", "VPN & proxy")
	vpn.ToggleButton("tglVPN", "VPN",
		func(*appkit.App) bool { return s.State.VPN },
		func(_ *appkit.App, on bool) { s.State.VPN = on })
	proxyDlg := s.NewDialog("dlgProxy", "Proxy settings")
	prx := proxyDlg.Panel()
	prx.CheckBox("chkUseProxy", "Use a proxy server",
		func(*appkit.App) bool { return s.State.ProxyOn },
		func(_ *appkit.App, on bool) { s.State.ProxyOn = on })
	prx.Edit("edProxyServer", "Proxy address", s.State.ProxyServer,
		func(_ *appkit.App, v string) { s.State.ProxyServer = v })
	prx.Edit("edProxyPort", "Port", "8080", nil)
	proxyDlg.AddOKCancel(nil)
	vpn.DialogButton("btnProxySetup", "Proxy setup", proxyDlg, nil)

	advn := net.Group("grpAdvancedNetwork", "Advanced network settings")
	// Network reset: a destructive action double-gated behind a warning
	// dialog and a confirm dialog. "Reset now" reveals the confirm dialog,
	// making it a non-leaf the DMI agent must reach imperatively (§5.7).
	confirm := s.NewDialog("dlgResetConfirm", "Confirm network reset")
	confirm.Panel().Label("This removes VPN profiles and proxy settings.")
	confirm.AddOKCancel(func(*appkit.App) { s.resetNetwork() })
	resetDlg := s.NewDialog("dlgNetworkReset", "Network reset")
	rp := resetDlg.Panel()
	rp.Label("Reset all network adapters to factory defaults.")
	rn := rp.DialogButton("btnResetNow", "Reset now", confirm, nil)
	rn.SetDescription("Reset the network stack; asks for confirmation first")
	resetDlg.AddOKCancel(nil)
	advn.DialogButton("btnNetworkReset", "Network reset", resetDlg, nil)
	advn.ComboBox("cbDNS", "DNS server assignment",
		[]string{"Automatic (DHCP)", "Manual"}, nil)
}

// resetNetwork restores the network defaults and counts the reset.
func (s *App) resetNetwork() {
	s.State.NetworkResets++
	s.State.WiFi = true
	s.State.Airplane = false
	s.State.DataSaver = false
	s.State.VPN = false
	s.State.ProxyOn = false
	s.State.ProxyServer = ""
	s.State.Metered = false
}

func (s *App) buildPersonalization(picker *appkit.Popup) {
	per := s.Tab("tabPersonalization", "Personalization")

	col := per.Group("grpColors", "Colors")
	theme := s.NewMenu("mnuTheme", "Choose your mode")
	for _, m := range []string{"Light", "Dark"} {
		m := m
		it := theme.Panel().MenuItem("", m, func(*appkit.App) { s.State.Theme = m })
		it.SetDescription("Use the " + m + " interface mode")
	}
	tm := col.MenuButton("btnTheme", "Choose your mode", theme, nil)
	tm.SetDescription("Switch between the light and dark interface modes")
	ac := col.MenuButton("btnAccentColor", "Accent color", picker,
		func(*appkit.App) any { return BindAccentColor })
	ac.SetDescription("Color used for window accents and highlights")
	bg := col.MenuButton("btnBackgroundColor", "Background color", picker,
		func(*appkit.App) any { return BindBackgroundColor })
	bg.SetDescription("Solid color used as the desktop background")

	back := per.Group("grpBackground", "Background")
	wp := s.Gallery("galWallpaper", "Wallpaper",
		[]string{"Bloom", "Glow", "Captured Motion", "Sunrive", "Flow",
			"Ribbons", "Dunes", "Meadow", "Harbor", "Skyline", "Aurora",
			"Monochrome"}, 12,
		func(_ *appkit.App, w string) { s.State.Wallpaper = w })
	back.MenuButton("btnWallpaper", "Personalize your background", wp, nil)
	back.ComboBox("cbWallpaperFit", "Choose a fit",
		[]string{"Fill", "Fit", "Stretch", "Tile", "Center", "Span"}, nil)

	lock := per.Group("grpLockScreen", "Lock screen")
	lock.ComboBox("cbLockStatus", "Lock screen status",
		[]string{"None", "Calendar", "Mail", "Weather"}, nil)
	lock.CheckBox("chkLockTips", "Get fun facts and tips on the lock screen",
		func(*appkit.App) bool { return true }, func(*appkit.App, bool) {})
}

func (s *App) buildApps() {
	apps := s.Tab("tabApps", "Apps")
	def := apps.Group("grpDefaultApps", "Default apps")
	def.ComboBox("cbDefaultBrowser", "Web browser",
		[]string{"Edge", "Firefox", "Chrome", "Safari"}, nil)
	def.ComboBox("cbDefaultMail", "Email", []string{"Mail", "Outlook", "Thunderbird"}, nil)
	def.ComboBox("cbDefaultMusic", "Music player", []string{"Media Player", "Spotify", "VLC"}, nil)

	inst := apps.Group("grpInstalledApps", "Installed apps")
	for i, app := range []string{"Calculator", "Calendar", "Camera", "Maps",
		"Notepad", "Paint", "Photos", "Terminal"} {
		pane := inst.Pane(fmt.Sprintf("pnlApp%d", i), app)
		pane.Label(app + " · 48 MB")
	}
	stDlg := s.NewDialog("dlgStartupApps", "Startup apps")
	for _, app := range []string{"Cloud Sync", "Chat", "Updater"} {
		stDlg.Panel().CheckBox("chkStartup"+app, app,
			func(*appkit.App) bool { return false }, func(*appkit.App, bool) {})
	}
	stDlg.AddOKCancel(nil)
	inst.DialogButton("btnStartupApps", "Startup apps", stDlg, nil)
}

func (s *App) buildPrivacy() {
	pri := s.Tab("tabPrivacy", "Privacy & security")

	perm := pri.Group("grpAppPermissions", "App permissions")
	loc := perm.ToggleButton("tglLocation", "Location",
		func(*appkit.App) bool { return s.State.Location },
		func(_ *appkit.App, on bool) { s.State.Location = on })
	loc.SetDescription("Let apps access your location")
	cam := perm.ToggleButton("tglCamera", "Camera",
		func(*appkit.App) bool { return s.State.Camera },
		func(_ *appkit.App, on bool) { s.State.Camera = on })
	cam.SetDescription("Let apps access your camera")
	mic := perm.ToggleButton("tglMicrophone", "Microphone",
		func(*appkit.App) bool { return s.State.Microphone },
		func(_ *appkit.App, on bool) { s.State.Microphone = on })
	mic.SetDescription("Let apps access your microphone")

	win := pri.Group("grpWindowsPermissions", "General")
	win.ToggleButton("tglAdID", "Let apps use my advertising ID",
		func(*appkit.App) bool { return s.State.AdID },
		func(_ *appkit.App, on bool) { s.State.AdID = on })
	win.ComboBox("cbDiagnostic", "Diagnostic data",
		[]string{"Required", "Optional"},
		func(_ *appkit.App, v string) { s.State.DiagnosticData = v })
	win.ToggleButton("tglActivityHistory", "Activity history",
		func(*appkit.App) bool { return s.State.ActivityHistory },
		func(_ *appkit.App, on bool) { s.State.ActivityHistory = on })
	clear := s.NewDialog("dlgClearHistory", "Clear activity history")
	clear.Panel().Label("Clear your activity history for this account?")
	clear.AddOKCancel(func(*appkit.App) { s.State.HistoryClears++ })
	win.DialogButton("btnClearHistory", "Clear history", clear, nil)
}

func (s *App) buildTimeLanguage() {
	tl := s.Tab("tabTime", "Time & language")

	dt := tl.Group("grpDateTime", "Date & time")
	auto := dt.ToggleButton("tglAutoTimeZone", "Set time zone automatically",
		func(*appkit.App) bool { return s.State.AutoTimeZone },
		func(_ *appkit.App, on bool) { s.State.AutoTimeZone = on })
	auto.SetDescription("Pick the time zone from your location; disable to choose manually")
	// Picking a zone while automatic mode is on has no effect — the subtle
	// semantics ("forgot to disable automatic first") this panel is known for.
	dt.ComboBox("cbTimeZone", "Time zone", TimeZones(),
		func(_ *appkit.App, v string) {
			if !s.State.AutoTimeZone {
				s.State.TimeZone = v
			}
		})
	dt.ComboBox("cbDateFormat", "Date format",
		[]string{"dd/MM/yyyy", "MM/dd/yyyy", "yyyy-MM-dd", "dd.MM.yyyy"},
		func(_ *appkit.App, v string) { s.State.DateFormat = v })

	lang := tl.Group("grpLanguage", "Language & region")
	lang.ComboBox("cbLanguage", "Windows display language", catalog.Languages(),
		func(_ *appkit.App, v string) { s.State.Language = v })
	lang.ComboBox("cbRegion", "Country or region",
		[]string{"United States", "United Kingdom", "Germany", "France",
			"Japan", "Brazil", "India", "Australia", "Canada", "Spain"},
		func(_ *appkit.App, v string) { s.State.Region = v })
}

func (s *App) buildAccounts() {
	acc := s.Tab("tabAccounts", "Accounts")
	info := acc.Group("grpYourInfo", "Your info")
	info.Label("Local Account · Administrator")
	signOut := info.Button("btnSignOut", "Sign out", nil)
	signOut.SetDescription("Sign out of this device (ends the session)")
	// Signing out leaves the application in a state Esc cannot recover;
	// blocklisted like the slide-show start buttons.
	s.Block(signOut.ControlID())

	sync := acc.Group("grpSync", "Windows backup")
	sync.ToggleButton("tglSyncSettings", "Remember my preferences",
		func(*appkit.App) bool { return true }, func(*appkit.App, bool) {})
	sync.ToggleButton("tglSyncPasswords", "Remember my passwords",
		func(*appkit.App) bool { return false }, func(*appkit.App, bool) {})
}

// buildBody attaches the static chrome outside the category panels.
func (s *App) buildBody() {
	status := s.Window().Pane("pnlStatusBarS", "Status Bar")
	status.Label("Settings")
}
