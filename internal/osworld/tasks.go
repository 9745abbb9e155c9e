package osworld

import (
	"repro/internal/uia"
)

// All returns the 39-task benchmark: 9 Word, 9 Excel, 9 PowerPoint
// single-application scenarios (the OSWorld-W shape the paper evaluates)
// plus 6 Settings and 6 Files scenarios from the extended catalog. Every
// task is pure data — setup ops and a verify condition instead of closures —
// so this grid is also the reference content of packs/osworld-w.json, and
// taskpack.Builtin serves it behind the same registry interface a loaded
// pack gets.
func All() []Task {
	var ts []Task
	ts = append(ts, wordTasks()...)
	ts = append(ts, excelTasks()...)
	ts = append(ts, slidesTasks()...)
	ts = append(ts, settingsTasks()...)
	ts = append(ts, filesTasks()...)
	return ts
}

func access(primary, contains string) PlanStep {
	return PlanStep{Kind: StepAccess, Target: Target{Primary: primary, GIDContains: contains}}
}

func accessVia(primary, contains, via string) PlanStep {
	return PlanStep{Kind: StepAccess, Target: Target{Primary: primary, GIDContains: contains, Via: via}}
}

func input(primary, text string) PlanStep {
	return PlanStep{Kind: StepInput, Target: Target{Primary: primary}, Text: text}
}

func key(k string) PlanStep { return PlanStep{Kind: StepShortcut, Key: k} }

// Word ------------------------------------------------------------------------

func wordTasks() []Task {
	return []Task{
		{
			ID: "word-replace", App: "Word",
			Description: "Replace every occurrence of 'alpha' with 'omega' in the document.",
			Ambiguity:   0.15,
			Setup: []SetupOp{{Op: SetupWordParagraphs, Texts: []string{
				"The alpha release shipped late.",
				"Feedback on alpha was mixed, though alpha adoption grew.",
				"Next milestone: beta.",
			}}},
			Verify: AllOf(
				Eq("occurrences.alpha", 0.0),
				Eq("occurrences.omega", 3.0),
			),
			Plan: []PlanStep{
				input("edFindWhat", "alpha"),
				input("edReplaceWith", "omega"),
				{Kind: StepAccess, Target: Target{Primary: "btnReplaceAll"},
					TrapKind: FailControlSem, TrapWeight: 0.3,
					TrapAlt: &Target{Primary: "btnReplaceOne"}},
			},
		},
		{
			ID: "word-font-color", App: "Word",
			Description: "Color the text of paragraphs 2 and 3 blue.",
			Ambiguity:   0.2,
			Verify: AllOf(
				Eq("para.2.font-color", "Blue"),
				Eq("para.3.font-color", "Blue"),
				Not(Eq("para.1.font-color", "Blue")),
			),
			Plan: []PlanStep{
				{Kind: StepState, State: &StateOp{Op: "select_paragraphs",
					ControlName: "Document", ControlType: uia.DocumentControl,
					Start: 2, End: 3}, VisualDiff: 0.5},
				{Kind: StepAccess, Target: Target{Primary: "Blue",
					GIDContains: "clrPickerStd", Via: "btnFontColor"},
					Ambiguity: 0.3, TrapKind: FailControlSem, TrapWeight: 0.4,
					TrapAlt: &Target{Primary: "Blue", GIDContains: "clrPickerStd", Via: "btnHighlight"}},
			},
		},
		{
			ID: "word-underline-color", App: "Word",
			Description: "Give the first paragraph a red underline.",
			Ambiguity:   0.25,
			Verify: AllOf(
				Eq("para.1.underline", true),
				Eq("para.1.underline-color", "Red"),
				Not(Eq("para.1.font-color", "Red")),
			),
			Plan: []PlanStep{
				{Kind: StepState, State: &StateOp{Op: "select_paragraphs",
					ControlName: "Document", ControlType: uia.DocumentControl,
					Start: 1, End: 1}, VisualDiff: 0.3},
				// The picker path decides the semantics: underline color,
				// not font color — the canonical path-ambiguity trap.
				{Kind: StepAccess, Target: Target{Primary: "Red",
					GIDContains: "clrPickerStd", Via: "btnUnderlineColor"},
					Ambiguity: 0.3, TrapKind: FailControlSem, TrapWeight: 0.8,
					TrapAlt: &Target{Primary: "Red", GIDContains: "clrPickerStd", Via: "btnFontColor"}},
			},
		},
		{
			ID: "word-bold", App: "Word",
			Description: "Make paragraphs 2 through 4 bold.",
			Ambiguity:   0.1,
			Verify: AllOf(
				Not(Eq("para.1.bold", true)),
				Eq("para.2.bold", true),
				Eq("para.3.bold", true),
				Eq("para.4.bold", true),
			),
			Plan: []PlanStep{
				{Kind: StepState, State: &StateOp{Op: "select_paragraphs",
					ControlName: "Document", ControlType: uia.DocumentControl,
					Start: 2, End: 4}, VisualDiff: 0.5},
				access("btnBold", ""),
			},
		},
		{
			ID: "word-orientation", App: "Word",
			Description: "Switch the page to landscape orientation.",
			Ambiguity:   0.05,
			Verify:      Eq("orientation", "Landscape"),
			Plan:        []PlanStep{access("Landscape", "mnuOrientation")},
		},
		{
			ID: "word-line-spacing", App: "Word",
			Description: "Set the line spacing of the whole document to 1.5.",
			Ambiguity:   0.15,
			Verify: AllOf(
				Eq("para.1.line-spacing", 1.5),
				Eq("para.2.line-spacing", 1.5),
				Eq("para.3.line-spacing", 1.5),
				Eq("para.4.line-spacing", 1.5),
				Eq("para.5.line-spacing", 1.5),
			),
			Plan: []PlanStep{
				{Kind: StepState, State: &StateOp{Op: "select_paragraphs",
					ControlName: "Document", ControlType: uia.DocumentControl,
					Start: 1, End: 5}, VisualDiff: 0.4,
					TrapKind: FailSubtleSem, TrapWeight: 0.35, TrapAlt: nil},
				{Kind: StepAccess, Target: Target{Primary: "1.50", GIDContains: "mnuLineSpacing"},
					Ambiguity: 0.2,
					TrapKind:  FailAmbiguousTask, TrapWeight: 0.25,
					TrapAlt: &Target{Primary: "1.15", GIDContains: "mnuLineSpacing"}},
			},
		},
		{
			ID: "word-table", App: "Word",
			Description: "Insert a table with 4 columns and 3 rows.",
			Ambiguity:   0.1,
			Verify: AllOf(
				Eq("table.last.cols", 4.0),
				Eq("table.last.rows", 3.0),
			),
			Plan: []PlanStep{
				// "4x3" reads columns×rows in the grid; transposing it is
				// the classic control-semantics slip.
				{Kind: StepAccess, Target: Target{Primary: "4x3 Table", GIDContains: "pnlTableGrid"},
					VisualDiff: 0.6, TrapKind: FailControlSem, TrapWeight: 0.5,
					TrapAlt: &Target{Primary: "3x4 Table", GIDContains: "pnlTableGrid"}},
			},
		},
		{
			ID: "word-save-as", App: "Word",
			Description: "Save the document under the name 'report_final'.",
			Ambiguity:   0.05,
			Verify:      Eq("saved", "report_final"),
			Plan: []PlanStep{
				input("saveAsName", "report_final"),
				access("dlgSaveAsOK", ""),
			},
		},
		{
			ID: "word-header", App: "Word",
			Description: "Add the Austin header to the document.",
			Ambiguity:   0.1,
			Verify:      Eq("header", "Austin Header"),
			Plan: []PlanStep{
				{Kind: StepAccess, Target: Target{Primary: "Austin Header", GIDContains: "galHeader"},
					Ambiguity: 0.2,
					TrapKind:  FailAmbiguousTask, TrapWeight: 0.25,
					TrapAlt: &Target{Primary: "Austin Footer", GIDContains: "galFooter"}},
			},
		},
	}
}

// Excel -----------------------------------------------------------------------

func excelTasks() []Task {
	return []Task{
		{
			ID: "excel-percentage", App: "Excel",
			Description: "Format cells B2 through B6 as percentages.",
			Ambiguity:   0.1,
			Verify: AllOf(
				Eq("cell.B2.format", "Percentage"),
				Eq("cell.B3.format", "Percentage"),
				Eq("cell.B4.format", "Percentage"),
				Eq("cell.B5.format", "Percentage"),
				Eq("cell.B6.format", "Percentage"),
				Not(Eq("cell.C2.format", "Percentage")),
			),
			Plan: []PlanStep{
				input("edNameBox", "B2:B6"),
				key("ENTER"),
				{Kind: StepAccess, Target: Target{Primary: "Percentage", GIDContains: "cbNumberFormat"},
					Ambiguity: 0.15},
			},
		},
		{
			ID: "excel-cond-format", App: "Excel",
			Description: "Highlight sales greater than 100 in B2:B6 using conditional formatting.",
			Ambiguity:   0.25,
			Verify: AllOf(
				Not(Eq("cell.B2.fill", "")),
				Eq("cell.B3.fill", ""),
				Not(Eq("cell.B4.fill", "")),
				Eq("cell.B5.fill", ""),
				Not(Eq("cell.B6.fill", "")),
				AtLeast("cond-rules", 1),
			),
			Plan: []PlanStep{
				input("edNameBox", "B2:B6"),
				key("ENTER"),
				{Kind: StepInput, Target: Target{Primary: "edGTValue"}, Text: "100",
					Ambiguity: 0.2, TrapKind: FailControlSem, TrapWeight: 0.35},
				access("dlgGreaterThanOK", ""),
			},
		},
		{
			ID: "excel-sort", App: "Excel",
			Description: "Sort the data by the Sales column, largest first.",
			Ambiguity:   0.2,
			Verify: AllOf(
				AtLeast("used-rows", 6),
				Eq("cell.B2.value", "143"),
				Eq("cell.B6.value", "88"),
				Eq("cell.A2.value", "East"),
			),
			Plan: []PlanStep{
				// "Sales" is column B: a semantic mapping the model must get
				// right from the sheet content.
				{Kind: StepAccess, Target: Target{Primary: "Column B", GIDContains: "cbSortBy"},
					Ambiguity: 0.35, TrapKind: FailAmbiguousTask, TrapWeight: 0.35,
					TrapAlt: &Target{Primary: "Column C", GIDContains: "cbSortBy"}},
				{Kind: StepAccess, Target: Target{Primary: "Descending", GIDContains: "cbSortOrder"},
					Ambiguity: 0.15},
				access("dlgSortOK", ""),
			},
		},
		{
			ID: "excel-freeze", App: "Excel",
			Description: "Keep the header row visible while scrolling.",
			Ambiguity:   0.2,
			Verify: AllOf(
				Eq("frozen-top-row", true),
				Eq("frozen-first-col", false),
			),
			Plan: []PlanStep{
				// "Freeze Panes" (freezes row AND column at the cursor) is
				// the misinterpretation; "Freeze Top Row" is correct.
				{Kind: StepAccess, Target: Target{Primary: "btnFreezeTopRow"},
					Ambiguity: 0.2, TrapKind: FailControlSem, TrapWeight: 0.5,
					TrapAlt: &Target{Primary: "btnFreezePanesItem"}},
			},
		},
		{
			ID: "excel-formula", App: "Excel",
			Description: "Put the formula =SUM(B2:B6) into cell D2.",
			Ambiguity:   0.1,
			Verify:      Eq("cell.D2.value", "=SUM(B2:B6)"),
			Plan: []PlanStep{
				input("edNameBox", "D2"),
				key("ENTER"),
				input("edFormulaBar", "=SUM(B2:B6)"),
				// Forgetting the commit keystroke is the subtle trap the
				// paper's §5.7 lesson describes for the Name Box family.
				{Kind: StepShortcut, Key: "ENTER",
					TrapKind: FailSubtleSem, TrapWeight: 0.3, TrapAlt: nil},
			},
		},
		{
			ID: "excel-read-cell", App: "Excel",
			Description: "Report the value stored in cell C22.",
			Ambiguity:   0.1,
			Expected:    "1379.25",
			Setup:       []SetupOp{{Op: SetupExcelSetCell, Ref: "C22", Value: "1379.25"}},
			Verify:      AnswerIsExpected(),
			Plan: []PlanStep{
				input("edNameBox", "C22"),
				key("ENTER"),
				{Kind: StepObserve, Target: Target{Primary: "cellC22"}, VisualDiff: 0.8},
			},
		},
		{
			ID: "excel-col-width", App: "Excel",
			Description: "Set the width of columns B and C to 20.",
			Ambiguity:   0.15,
			Verify: AllOf(
				Eq("col-width.B", 20.0),
				Eq("col-width.C", 20.0),
			),
			Plan: []PlanStep{
				input("edNameBox", "B1:C1"),
				key("ENTER"),
				access("spnColWidth", ""),
				{Kind: StepState, State: &StateOp{Op: "set_range_value",
					ControlName: "Column width", ControlType: uia.SpinnerControl,
					Value: 20}, VisualDiff: 0.4},
				access("dlgColumnWidthOK", ""),
			},
		},
		{
			ID: "excel-chart", App: "Excel",
			Description: "Insert a pie chart for the sales data.",
			Ambiguity:   0.15,
			Verify:      Eq("charts.Pie", true),
			Plan: []PlanStep{
				{Kind: StepAccess, Target: Target{Primary: "Pie", GIDContains: "galQuickCharts"},
					Ambiguity: 0.15,
					TrapKind:  FailAmbiguousTask, TrapWeight: 0.2,
					TrapAlt: &Target{Primary: "Bar", GIDContains: "galQuickCharts"}},
			},
		},
		{
			ID: "excel-fill-color", App: "Excel",
			Description: "Shade the header row A1:C1 gold.",
			Ambiguity:   0.2,
			Verify: AllOf(
				Eq("cell.A1.fill", "Gold"),
				Eq("cell.B1.fill", "Gold"),
				Eq("cell.C1.fill", "Gold"),
				Not(Eq("cell.A1.font-color", "Gold")),
			),
			Plan: []PlanStep{
				input("edNameBox", "A1:C1"),
				key("ENTER"),
				// Fill color vs font color: same picker, different path.
				{Kind: StepAccess, Target: Target{Primary: "Gold",
					GIDContains: "clrPickerTheme", Via: "btnFillColor"},
					Ambiguity: 0.25, TrapKind: FailControlSem, TrapWeight: 0.5,
					TrapAlt: &Target{Primary: "Gold", GIDContains: "clrPickerTheme", Via: "btnFontColor"}},
			},
		},
	}
}

// PowerPoint --------------------------------------------------------------------

func slidesTasks() []Task {
	return []Task{
		{
			ID: "ppt-background", App: "PowerPoint",
			Description: "Make the background blue on all slides.",
			Ambiguity:   0.15,
			Setup:       []SetupOp{{Op: SetupSlidesDeck, Count: 12}},
			Verify:      Eq("all-backgrounds.Blue", true),
			Plan: []PlanStep{
				access("Solid fill", "rbFill"),
				accessVia("Blue", "clrPickerStd", "btnFillColor"),
				// Forgetting Apply to All leaves 11 slides unchanged: the
				// subtle-semantics trap of the paper's running example.
				{Kind: StepAccess, Target: Target{Primary: "btnApplyToAll"},
					TrapKind: FailSubtleSem, TrapWeight: 0.4, TrapAlt: nil},
			},
		},
		{
			ID: "ppt-scroll", App: "PowerPoint",
			Description: "Show the slides close to the end of the deck in the thumbnail panel.",
			Ambiguity:   0.1,
			Setup:       []SetupOp{{Op: SetupSlidesDeck, Count: 12}},
			Verify:      AtLeast("thumb-top", 4),
			Plan: []PlanStep{
				{Kind: StepState, State: &StateOp{Op: "scrollbar",
					ControlName: "Slides Vertical Scroll Bar",
					ControlType: uia.ScrollBarControl,
					H:           uia.NoScroll, V: 80}, VisualDiff: 0.7},
			},
		},
		{
			ID: "ppt-new-slide", App: "PowerPoint",
			Description: "Add a new slide that uses the Title Only layout.",
			Ambiguity:   0.1,
			Setup:       []SetupOp{{Op: SetupSlidesDeck, Count: 5}},
			Verify: AllOf(
				Eq("slide-count", 6.0),
				Eq("current-slide.layout", "Title Only"),
			),
			Plan: []PlanStep{
				{Kind: StepAccess, Target: Target{Primary: "Title Only",
					GIDContains: "galLayouts", Via: "btnNewSlide"},
					Ambiguity: 0.2, TrapKind: FailAmbiguousTask, TrapWeight: 0.25,
					TrapAlt: &Target{Primary: "Title Slide", GIDContains: "galLayouts", Via: "btnNewSlide"}},
			},
		},
		{
			ID: "ppt-transition", App: "PowerPoint",
			Description: "Apply the Fade transition to every slide.",
			Ambiguity:   0.15,
			Setup:       []SetupOp{{Op: SetupSlidesDeck, Count: 8}},
			Verify:      Eq("all-transitions.Fade", true),
			Plan: []PlanStep{
				{Kind: StepAccess, Target: Target{Primary: "Fade", GIDContains: "galTransitions"},
					Ambiguity: 0.15},
				{Kind: StepAccess, Target: Target{Primary: "btnApplyToAllTransitions"},
					TrapKind: FailSubtleSem, TrapWeight: 0.45, TrapAlt: nil},
			},
		},
		{
			ID: "ppt-picture-border", App: "PowerPoint",
			Description: "Insert a picture and give it a green border.",
			Ambiguity:   0.15,
			Setup:       []SetupOp{{Op: SetupSlidesDeck, Count: 6}},
			Verify: AllOf(
				Eq("picture-border", "Green"),
				Eq("context.image-selected", true),
			),
			Plan: []PlanStep{
				access("pPictures", ""),
				// The border picker lives behind a context-dependent tab.
				accessVia("Green", "clrPickerStd", "btnPictureBorderP"),
			},
		},
		{
			ID: "ppt-slide-size", App: "PowerPoint",
			Description: "Change the slide size to the standard 4:3 format.",
			Ambiguity:   0.05,
			Setup:       []SetupOp{{Op: SetupSlidesDeck, Count: 6}},
			Verify:      Eq("slide-size", "Standard (4:3)"),
			Plan: []PlanStep{
				access("Standard (4:3)", "mnuSlideSize"),
			},
		},
		{
			ID: "ppt-font-size", App: "PowerPoint",
			Description: "Set the title of slide 2 to font size 48.",
			Ambiguity:   0.1,
			Setup:       []SetupOp{{Op: SetupSlidesDeck, Count: 6}},
			Verify: AllOf(
				Eq("slide.2.title.font-size", 48.0),
				Not(Eq("slide.1.title.font-size", 48.0)),
			),
			Plan: []PlanStep{
				{Kind: StepAccess, Target: Target{Primary: "thumbSlide2"}, VisualDiff: 0.3,
					TrapKind: FailSubtleSem, TrapWeight: 0.3, TrapAlt: nil},
				{Kind: StepAccess, Target: Target{Primary: "48", GIDContains: "pFontSize"},
					Ambiguity: 0.15,
					TrapAlt:   &Target{Primary: "36", GIDContains: "pFontSize"}},
			},
		},
		{
			ID: "ppt-hide-slide", App: "PowerPoint",
			Description: "Hide slide 3 so it is skipped during the show.",
			Ambiguity:   0.1,
			Setup:       []SetupOp{{Op: SetupSlidesDeck, Count: 6}},
			Verify: AllOf(
				Eq("slide.3.hidden", true),
				Eq("slide.2.hidden", false),
			),
			Plan: []PlanStep{
				{Kind: StepAccess, Target: Target{Primary: "thumbSlide3"}, VisualDiff: 0.3,
					TrapKind: FailAmbiguousTask, TrapWeight: 0.2,
					TrapAlt: &Target{Primary: "thumbSlide4"}},
				access("btnHideSlide", ""),
			},
		},
		{
			ID: "ppt-title-edit", App: "PowerPoint",
			Description: "Change the title of slide 2 to 'Quarterly Review'.",
			Ambiguity:   0.1,
			Setup:       []SetupOp{{Op: SetupSlidesDeck, Count: 6}},
			Verify:      Eq("slide.2.title.text", "Quarterly Review"),
			Plan: []PlanStep{
				{Kind: StepAccess, Target: Target{Primary: "thumbSlide2"}, VisualDiff: 0.3},
				input("shpTitle", "Quarterly Review"),
			},
		},
	}
}

// Settings ---------------------------------------------------------------------

func settingsTasks() []Task {
	return []Task{
		{
			ID: "settings-night-light", App: "Settings",
			Description: "Turn on night light to cut down blue light in the evenings.",
			Ambiguity:   0.15,
			Verify: AllOf(
				Eq("state.night-light", true),
				Not(Eq("state.theme", "Dark")),
			),
			Plan: []PlanStep{
				// Night light vs dark mode is the settings-panel analog of
				// the font-color/highlight confusion.
				{Kind: StepAccess, Target: Target{Primary: "tglNightLight"},
					Ambiguity: 0.15, TrapKind: FailControlSem, TrapWeight: 0.5,
					TrapAlt: &Target{Primary: "Dark", GIDContains: "mnuTheme"}},
			},
		},
		{
			ID: "settings-dark-mode", App: "Settings",
			Description: "Switch the interface to dark mode.",
			Ambiguity:   0.15,
			Verify: AllOf(
				Eq("state.theme", "Dark"),
				Eq("state.night-light", false),
			),
			Plan: []PlanStep{
				{Kind: StepAccess, Target: Target{Primary: "Dark", GIDContains: "mnuTheme"},
					Ambiguity: 0.15, TrapKind: FailControlSem, TrapWeight: 0.5,
					TrapAlt: &Target{Primary: "tglNightLight"}},
			},
		},
		{
			ID: "settings-brightness", App: "Settings",
			Description: "Set the display brightness to 80 percent.",
			Ambiguity:   0.1,
			Verify: AllOf(
				Eq("state.brightness", 80.0),
				Not(Eq("state.volume", 80.0)),
			),
			Plan: []PlanStep{
				{Kind: StepState, State: &StateOp{Op: "set_range_value",
					ControlName: "Brightness", ControlType: uia.SpinnerControl,
					Value: 80}, VisualDiff: 0.4},
			},
		},
		{
			ID: "settings-accent-color", App: "Settings",
			Description: "Make the accent color purple.",
			Ambiguity:   0.2,
			Verify: AllOf(
				Eq("state.accent-color", "Purple"),
				Not(Eq("state.background-color", "Purple")),
			),
			Plan: []PlanStep{
				// Accent vs background color: same shared picker, different
				// opener path — the Office path-ambiguity trap transplanted.
				{Kind: StepAccess, Target: Target{Primary: "Purple",
					GIDContains: "clrPickerSStd", Via: "btnAccentColor"},
					Ambiguity: 0.25, TrapKind: FailControlSem, TrapWeight: 0.5,
					TrapAlt: &Target{Primary: "Purple", GIDContains: "clrPickerSStd", Via: "btnBackgroundColor"}},
			},
		},
		{
			ID: "settings-timezone", App: "Settings",
			Description: "Set the time zone to Hawaii by hand.",
			Ambiguity:   0.2,
			Verify: AllOf(
				Eq("state.time-zone", "(UTC-10:00) Hawaii"),
				Eq("state.auto-time-zone", false),
			),
			Plan: []PlanStep{
				// Leaving "set automatically" on makes the manual pick a
				// silent no-op — this panel's classic subtle semantics.
				{Kind: StepAccess, Target: Target{Primary: "tglAutoTimeZone"},
					TrapKind: FailSubtleSem, TrapWeight: 0.4, TrapAlt: nil},
				// The zone list is a large enumeration: outside the core
				// topology, so the DMI agent needs a further_query round.
				{Kind: StepAccess, Target: Target{Primary: "(UTC-10:00) Hawaii",
					GIDContains: "cbTimeZone"},
					Ambiguity: 0.2, TrapKind: FailAmbiguousTask, TrapWeight: 0.25,
					TrapAlt: &Target{Primary: "(UTC-10:00) Hawaii — Daylight", GIDContains: "cbTimeZone"}},
			},
		},
		{
			ID: "settings-network-reset", App: "Settings",
			Description: "Restore the network configuration to its defaults.",
			Ambiguity:   0.2,
			Setup: []SetupOp{
				{Op: SetupSettingsSet, Path: "vpn", Value: true},
				{Op: SetupSettingsSet, Path: "proxy-on", Value: true},
				{Op: SetupSettingsSet, Path: "proxy-server", Value: "proxy.corp:8080"},
				{Op: SetupSettingsSet, Path: "wifi", Value: false},
			},
			Verify: AllOf(
				Eq("state.network-resets", 1.0),
				Eq("state.vpn", false),
				Eq("state.proxy-server", ""),
				Eq("state.wifi", true),
			),
			Plan: []PlanStep{
				// "Reset now" reveals the confirm dialog, so it is a
				// navigation (non-leaf) node: the declarative agent must take
				// the imperative slow path to it (§5.7).
				{Kind: StepAccess, Target: Target{Primary: "btnResetNow",
					GIDContains: "dlgNetworkReset"}, VisualDiff: 0.3},
				// Forgetting the confirmation leaves everything unchanged.
				{Kind: StepAccess, Target: Target{Primary: "dlgResetConfirmOK"},
					TrapKind: FailSubtleSem, TrapWeight: 0.4, TrapAlt: nil},
			},
		},
	}
}

// Files ------------------------------------------------------------------------

func filesTasks() []Task {
	return []Task{
		{
			ID: "files-delete", App: "Files",
			Description: "Delete old_notes.txt from the Documents folder.",
			Ambiguity:   0.1,
			Verify: AllOf(
				Eq("has.Documents.old_notes.txt", false),
				Eq("trashed.old_notes.txt", true),
				Eq("has.Documents.notes.txt", true),
			),
			Plan: []PlanStep{
				{Kind: StepState, State: &StateOp{Op: "select_controls",
					ControlName: "old_notes.txt", ControlType: uia.ListItemControl,
					Names: []string{"old_notes.txt"}}, VisualDiff: 0.4},
				{Kind: StepAccess, Target: Target{Primary: "dlgDeleteFOK", Via: "btnDeleteF"},
					TrapKind: FailControlSem, TrapWeight: 0.35,
					TrapAlt: &Target{Primary: "dlgDeleteFCancel", Via: "btnDeleteF"}},
			},
		},
		{
			ID: "files-rename", App: "Files",
			Description: "Rename report_draft.txt in Documents to report_final.txt, then open it to check the content.",
			Ambiguity:   0.15,
			Verify: AllOf(
				Eq("has.Documents.report_final.txt", true),
				Eq("has.Documents.report_draft.txt", false),
				Eq("preview-name", "report_final.txt"),
			),
			Plan: []PlanStep{
				{Kind: StepState, State: &StateOp{Op: "select_controls",
					ControlName: "report_draft.txt", ControlType: uia.ListItemControl,
					Names: []string{"report_draft.txt"}}, VisualDiff: 0.3},
				{Kind: StepInput, Target: Target{Primary: "edRenameTo", Via: "btnRenameF"},
					Text: "report_final.txt"},
				{Kind: StepAccess, Target: Target{Primary: "dlgRenameFOK", Via: "btnRenameF"},
					TrapKind: FailSubtleSem, TrapWeight: 0.3, TrapAlt: nil},
				// The model still knows the file by its old name: the access
				// after the rename only lands through the fuzzy matcher.
				{Kind: StepAccess, Target: Target{Primary: "report_draft.txt",
					GIDContains: "lstFiles"}, VisualDiff: 0.3},
			},
		},
		{
			ID: "files-scroll", App: "Files",
			Description: "Scroll the Projects folder to show the files at the end of the list.",
			Ambiguity:   0.1,
			Verify: AllOf(
				Eq("current", "Projects"),
				AtLeast("view-top", 4),
			),
			Plan: []PlanStep{
				// Folder items reveal their file rows, so they are non-leaf
				// navigation nodes (imperative slow path).
				{Kind: StepAccess, Target: Target{Primary: "fldProjects"}, VisualDiff: 0.2},
				{Kind: StepState, State: &StateOp{Op: "scrollbar",
					ControlName: "Files Vertical Scroll Bar",
					ControlType: uia.ScrollBarControl,
					H:           uia.NoScroll, V: 85}, VisualDiff: 0.7},
			},
		},
		{
			ID: "files-preview-copy", App: "Files",
			Description: "Copy the second and third lines of notes.txt to the clipboard.",
			Ambiguity:   0.15,
			Verify: Eq("text-clipboard", "Ship the quarterly report by Friday.\n"+
				"Review the budget draft with finance."),
			Plan: []PlanStep{
				{Kind: StepAccess, Target: Target{Primary: "notes.txt",
					GIDContains: "lstFiles"}, VisualDiff: 0.3},
				{Kind: StepState, State: &StateOp{Op: "select_lines",
					ControlName: "Preview", ControlType: uia.DocumentControl,
					Start: 2, End: 3}, VisualDiff: 0.5},
				// "Copy Text" vs the file-clipboard "Copy": adjacent controls,
				// different semantics.
				{Kind: StepAccess, Target: Target{Primary: "btnCopyText"},
					Ambiguity: 0.15, TrapKind: FailControlSem, TrapWeight: 0.4,
					TrapAlt: &Target{Primary: "btnCopyF"}},
			},
		},
		{
			ID: "files-move", App: "Files",
			Description: "Move photo2.jpg and photo4.jpg from Pictures into Downloads.",
			Ambiguity:   0.15,
			Verify: AllOf(
				Eq("has.Downloads.photo2.jpg", true),
				Eq("has.Downloads.photo4.jpg", true),
				Eq("has.Pictures.photo2.jpg", false),
				Eq("has.Pictures.photo4.jpg", false),
			),
			Plan: []PlanStep{
				{Kind: StepAccess, Target: Target{Primary: "fldPictures"}, VisualDiff: 0.2},
				{Kind: StepState, State: &StateOp{Op: "select_controls",
					ControlName: "photo2.jpg", ControlType: uia.ListItemControl,
					Names: []string{"photo2.jpg", "photo4.jpg"}}, VisualDiff: 0.4},
				// Copy instead of Cut leaves the originals behind.
				{Kind: StepAccess, Target: Target{Primary: "btnCutF"},
					TrapKind: FailControlSem, TrapWeight: 0.35,
					TrapAlt: &Target{Primary: "btnCopyF"}},
				{Kind: StepAccess, Target: Target{Primary: "fldDownloads"}, VisualDiff: 0.2},
				access("btnPasteF", ""),
			},
		},
		{
			ID: "files-hidden", App: "Files",
			Description: "Show the hidden files in the Downloads folder.",
			Ambiguity:   0.15,
			Verify: AllOf(
				Eq("current", "Downloads"),
				Eq("show-hidden", true),
			),
			Plan: []PlanStep{
				{Kind: StepAccess, Target: Target{Primary: "fldDownloads"}, VisualDiff: 0.2},
				{Kind: StepAccess, Target: Target{Primary: "chkHiddenF"},
					Ambiguity: 0.15, TrapKind: FailControlSem, TrapWeight: 0.4,
					TrapAlt: &Target{Primary: "chkExtensionsF"}},
			},
		},
	}
}
