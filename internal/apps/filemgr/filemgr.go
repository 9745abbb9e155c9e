package filemgr

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/appkit"
	"repro/internal/uia"
)

// VisibleRows is the number of file rows the list viewport shows at once;
// the scrollbar pans over the rest (the select-and-scroll analog of the
// paper's Table 1 Task 2).
const VisibleRows = 8

// App is the simulated file manager.
type App struct {
	*appkit.App
	FS *FS

	// Current is the folder shown in the file area.
	Current string
	// ShowHidden and ShowExtensions mirror the View-tab checkboxes.
	ShowHidden     bool
	ShowExtensions bool
	// SortBy and SortDesc mirror the sort menu (display metadata only; the
	// row order stays stable so the rip is deterministic).
	SortBy   string
	SortDesc bool

	fileList    *uia.Element
	preview     *uia.Element
	previewText *uia.SimpleText
	previewOf   *File
	sel         *uia.SimpleSelectionList
	selected    []*File
	viewTop     int

	rows    map[*File]*uia.Element // row pane per file
	items   map[*File]*uia.Element // list item per file
	byItem  map[*uia.Element]*File
	rowSeq  map[string]int
	folders *uia.Element
	ctxMenu *appkit.Popup

	pendingRename string
	pendingFolder string
}

// New assembles the Files simulator around the default file tree.
func New() *App {
	f := &App{
		App: appkit.New("Files"), FS: NewFS(),
		Current: "Documents", SortBy: "Name",
		rows:   make(map[*File]*uia.Element),
		items:  make(map[*File]*uia.Element),
		byItem: make(map[*uia.Element]*File),
		rowSeq: make(map[string]int),
	}

	f.buildHome()
	f.buildView()
	f.buildBody()

	// The ripper's expansion determinism requires soft reset to restore
	// every piece of state that affects element visibility or future click
	// effects: deletions are undone, clipboards emptied, the viewport and
	// the folder selection return to their defaults.
	f.OnSoftReset(func(*appkit.App) { f.softReset() })
	f.Layout()
	return f
}

// Reset puts the file system and the browser state where New would: a new
// default file tree (renames, deletions, pastes and new folders gone), the
// clipboard empty, Documents open with default view options. It expects the
// file list to hold the rows New built, in order — a pooled instance's
// rewound undo log restores them — and maps the new files onto them.
func (f *App) Reset() {
	f.FS = NewFS()
	clear(f.rows)
	clear(f.items)
	clear(f.byItem)
	clear(f.rowSeq)
	rows := f.fileList.Children()
	for _, folder := range f.FS.Folders {
		for _, file := range folder.Files {
			row := rows[0]
			rows = rows[1:]
			it := row.Children()[0]
			f.rows[file], f.items[file], f.byItem[it] = row, it, file
			f.rowSeq[folder.Name]++
		}
	}
	f.pendingRename, f.pendingFolder = "", ""
	f.softReset()
}

// softReset restores deletion marks, clipboards, the selection and the
// browser view: what SoftReset leaves to the application. Each of them is
// written through the undo seam wherever it changes (DESIGN.md §14.4).
func (f *App) softReset() {
	for _, folder := range f.FS.Folders {
		for _, file := range folder.Files {
			if file.Deleted {
				uia.Store(f.Win, &file.Deleted, false)
			}
		}
	}
	uia.Store(f.Win, &f.FS.Trash, nil)
	f.setClipboard(nil, false)
	uia.Store(f.Win, &f.FS.TextClipboard, "")
	uia.Store(f.Win, &f.selected, nil)
	uia.Store(f.Win, &f.Current, "Documents")
	uia.Store(f.Win, &f.ShowHidden, false)
	uia.Store(f.Win, &f.ShowExtensions, false)
	uia.Store(f.Win, &f.SortBy, "Name")
	uia.Store(f.Win, &f.SortDesc, false)
	uia.Store(f.Win, &f.viewTop, 0)
	f.loadPreview(nil)
	f.applyViewport()
}

// setClipboard replaces the file clipboard through the undo seam.
func (f *App) setClipboard(files []*File, cut bool) {
	uia.Store(f.Win, &f.FS.Clipboard, files)
	uia.Store(f.Win, &f.FS.ClipCut, cut)
}

// Targets returns the files an action applies to: the context-menu binding
// if one is set (a single file or a captured selection), else the live
// selection. This is what makes the toolbar and the per-file context menu
// two paths into the same dialogs with different semantics (merge nodes).
func (f *App) Targets() []*File {
	switch b := f.Binding().(type) {
	case *File:
		return []*File{b}
	case []*File:
		return b
	}
	return f.selected
}

func (f *App) buildHome() {
	home := f.Tab("tabHome", "Home")

	clip := home.Group("grpClipboard", "Clipboard")
	cut := clip.Button("btnCutF", "Cut", func(*appkit.App) { f.toClipboard(true) })
	cut.SetDescription("Move the selected files on next paste")
	cp := clip.Button("btnCopyF", "Copy", func(*appkit.App) { f.toClipboard(false) })
	cp.SetDescription("Copy the selected files on next paste")
	paste := clip.Button("btnPasteF", "Paste", func(*appkit.App) { f.paste() })
	paste.SetDescription("Paste the clipboard files into the current folder")

	newMenu := f.NewMenu("mnuNew", "New")
	nm := newMenu.Panel()
	nm.MenuItem("newTextDoc", "Text document", nil)
	nm.MenuItem("newSpreadsheet", "Spreadsheet", nil)
	nm.MenuItem("newPresentation", "Presentation", nil)
	nm.MenuItem("newShortcut", "Shortcut", nil)
	nm.MenuItem("newArchive", "Compressed archive", nil)
	clip.MenuButton("btnNewMenu", "New", newMenu, nil)

	org := home.Group("grpOrganize", "Organize")
	renameDlg := f.NewDialog("dlgRenameF", "Rename")
	rp := renameDlg.Panel()
	rn := rp.Edit("edRenameTo", "New name", "", func(_ *appkit.App, v string) {
		f.pendingRename = v
	})
	rn.SetDescription("The new file name")
	// A fresh dialog session must not inherit a name typed (and possibly
	// cancelled) in an earlier one.
	renameDlg.OnOpen = func(*appkit.App, any) {
		f.pendingRename = ""
		_ = rn.Pattern(uia.ValuePattern).(uia.Valuer).SetValue(rn, "")
	}
	renameDlg.AddOKCancel(func(*appkit.App) { f.applyRename() })
	rb := org.DialogButton("btnRenameF", "Rename", renameDlg, func(*appkit.App) any {
		return append([]*File(nil), f.selected...)
	})
	rb.SetDescription("Rename the selected file")

	deleteDlg := f.NewDialog("dlgDeleteF", "Delete")
	deleteDlg.Panel().Label("Move the selected items to the trash?")
	deleteDlg.AddOKCancel(func(*appkit.App) { f.applyDelete() })
	db := org.DialogButton("btnDeleteF", "Delete", deleteDlg, func(*appkit.App) any {
		return append([]*File(nil), f.selected...)
	})
	db.SetDescription("Move the selected files to the trash")

	newFolderDlg := f.NewDialog("dlgNewFolderF", "New folder")
	nf := newFolderDlg.Panel()
	fn := nf.Edit("edFolderName", "Folder name", "", func(_ *appkit.App, v string) {
		f.pendingFolder = v
	})
	newFolderDlg.OnOpen = func(*appkit.App, any) {
		f.pendingFolder = ""
		_ = fn.Pattern(uia.ValuePattern).(uia.Valuer).SetValue(fn, "")
	}
	newFolderDlg.AddOKCancel(func(*appkit.App) { f.applyNewFolder() })
	org.DialogButton("btnNewFolderF", "New folder", newFolderDlg, nil)

	propDlg := f.NewDialog("dlgPropertiesF", "Properties")
	pd := propDlg.Panel()
	general := pd.Pane("pnlPropGeneral", "General")
	general.Label("Kind, size, and location of the selection")
	general.CheckBox("chkReadOnly", "Read-only",
		func(*appkit.App) bool { return false }, func(*appkit.App, bool) {})
	general.CheckBox("chkHiddenAttr", "Hidden",
		func(*appkit.App) bool { return false }, func(*appkit.App, bool) {})
	sharing := pd.Pane("pnlPropSharing", "Sharing")
	sharing.ComboBox("cbShareWith", "Share with",
		[]string{"Nobody", "Homegroup (Read)", "Homegroup (Read/Write)", "Specific people"}, nil)
	security := pd.Pane("pnlPropSecurity", "Security")
	for _, perm := range []string{"Full control", "Modify", "Read & execute", "Read", "Write"} {
		security.CheckBox("", "Allow "+perm,
			func(*appkit.App) bool { return true }, func(*appkit.App, bool) {})
	}
	propDlg.AddOKCancel(nil)
	org.DialogButton("btnPropertiesF", "Properties", propDlg, nil)

	open := home.Group("grpOpen", "Open")
	ob := open.Button("btnOpenF", "Open", func(*appkit.App) {
		if t := f.Targets(); len(t) > 0 {
			f.loadPreview(t[0])
		}
	})
	ob.SetDescription("Open the selected file in the preview pane")
	openWith := f.NewMenu("mnuOpenWith", "Open with")
	ow := openWith.Panel()
	for _, app := range []string{"Notepad", "Word Processor", "Spreadsheet App",
		"Photo Viewer", "Media Player", "Code Editor", "PDF Reader",
		"Archive Manager", "Hex Viewer", "Browser"} {
		ow.MenuItem("", app, nil)
	}
	open.MenuButton("btnOpenWith", "Open with", openWith, nil)
	ct := open.Button("btnCopyText", "Copy Text", func(*appkit.App) { f.copyPreviewText() })
	ct.SetDescription("Copy the selected preview lines to the clipboard")
	term := open.Button("btnOpenTerminal", "Open in Terminal", nil)
	term.SetDescription("Open a terminal at this folder (leaves the application)")
	share := open.Button("btnShareF", "Share", nil)
	share.SetDescription("Send the selection to another device (external)")
	// Both controls leave the application; the modeling operator blocklists
	// them (paper §4.1).
	f.Block(term.ControlID(), share.ControlID())

	// The shared per-file context menu: one popup, opened from every row's
	// options button with that row's file as the binding — and from nowhere
	// else. Its Rename…/Delete… entries open the same dialogs as the
	// toolbar, which makes the dialogs' controls canonical merge nodes.
	ctx := f.NewMenu("mnuFileContext", "File options")
	cb := ctx.Panel()
	cb.MenuItem("ctxOpen", "Open", func(*appkit.App) {
		if t := f.Targets(); len(t) > 0 {
			f.loadPreview(t[0])
		}
	})
	cb.MenuItem("ctxCut", "Cut", func(*appkit.App) { f.toClipboard(true) })
	cb.MenuItem("ctxCopy", "Copy", func(*appkit.App) { f.toClipboard(false) })
	cb.DialogButton("ctxRename", "Rename…", renameDlg, func(a *appkit.App) any {
		return a.Binding()
	})
	cb.DialogButton("ctxDelete", "Delete…", deleteDlg, func(a *appkit.App) any {
		return a.Binding()
	})
	cb.DialogButton("ctxProperties", "Properties", propDlg, func(a *appkit.App) any {
		return a.Binding()
	})
	f.ctxMenu = ctx

	sel := home.Group("grpSelect", "Select")
	sel.Button("btnSelectAll", "Select all", func(*appkit.App) {
		for i, file := range f.eligible() {
			it := f.items[file]
			si, _ := it.Pattern(uia.SelectionItemPattern).(uia.SelectionItem)
			if si == nil {
				continue
			}
			if i == 0 {
				_ = si.Select(it)
			} else {
				_ = si.AddToSelection(it)
			}
		}
	})
	sel.Button("btnSelectNone", "Select none", func(*appkit.App) {
		for _, file := range f.Selected() {
			it := f.items[file]
			if si, ok := it.Pattern(uia.SelectionItemPattern).(uia.SelectionItem); ok {
				_ = si.RemoveFromSelection(it)
			}
		}
	})
}

func (f *App) buildView() {
	view := f.Tab("tabView", "View")

	layout := view.Group("grpLayout", "Layout")
	for _, v := range []string{"List", "Details", "Large icons"} {
		layout.Button("btnLayout"+strings.ReplaceAll(v, " ", ""), v, nil)
	}

	show := view.Group("grpShow", "Show")
	hid := show.CheckBox("chkHiddenF", "Hidden items",
		func(*appkit.App) bool { return f.ShowHidden },
		func(_ *appkit.App, on bool) { uia.Store(f.Win, &f.ShowHidden, on); f.applyViewport() })
	hid.SetDescription("Show files whose names start with a dot")
	ext := show.CheckBox("chkExtensionsF", "File name extensions",
		func(*appkit.App) bool { return f.ShowExtensions },
		func(_ *appkit.App, on bool) { uia.Store(f.Win, &f.ShowExtensions, on) })
	ext.SetDescription("Show file name extensions in the list")

	show.CheckBox("chkItemCheckboxes", "Item check boxes",
		func(*appkit.App) bool { return false }, func(*appkit.App, bool) {})
	show.CheckBox("chkPreviewPane", "Preview pane",
		func(*appkit.App) bool { return true }, func(*appkit.App, bool) {})

	sort := view.Group("grpSort", "Sort")
	sm := f.NewMenu("mnuSortBy", "Sort by")
	sp := sm.Panel()
	for _, k := range []string{"Name", "Size", "Kind", "Date modified"} {
		k := k
		sp.MenuItem("", k, func(*appkit.App) { uia.Store(f.Win, &f.SortBy, k) })
	}
	sp.Separator()
	sp.MenuItem("srtAsc", "Ascending", func(*appkit.App) { uia.Store(f.Win, &f.SortDesc, false) })
	sp.MenuItem("srtDesc", "Descending", func(*appkit.App) { uia.Store(f.Win, &f.SortDesc, true) })
	sort.MenuButton("btnSortBy", "Sort by", sm, nil)
	group := f.NewMenu("mnuGroupBy", "Group by")
	for _, k := range []string{"(None)", "Name", "Size", "Kind", "Date modified"} {
		group.Panel().MenuItem("", k, nil)
	}
	sort.MenuButton("btnGroupBy", "Group by", group, nil)

	cols := view.Group("grpColumns", "Columns")
	colDlg := f.NewDialog("dlgChooseColumns", "Choose details")
	for _, col := range []string{"Name", "Size", "Kind", "Date modified",
		"Date created", "Owner", "Tags", "Rating"} {
		colDlg.Panel().CheckBox("", "Show "+col,
			func(*appkit.App) bool { return true }, func(*appkit.App, bool) {})
	}
	colDlg.AddOKCancel(nil)
	cols.DialogButton("btnChooseColumns", "Choose details", colDlg, nil)
}

// buildBody attaches the sidebar, the scrollable file list, the preview
// pane, and the status bar.
func (f *App) buildBody() {
	addr := f.Window().Pane("pnlAddressBar", "Address Bar")
	addr.Button("btnNavBack", "Back", nil)
	addr.Button("btnNavForward", "Forward", nil)
	addr.Button("btnNavUp", "Up", nil)
	crumb := addr.Toolbar("tbBreadcrumb", "Breadcrumb")
	crumb.Button("crumbHome", "This PC", nil)
	crumb.Button("crumbCurrent", "Current folder", func(*appkit.App) { f.SetFolder(f.Current) })
	addr.Edit("edSearchFiles", "Search", "", nil)

	side := f.Window().Pane("pnlSidebar", "Navigation Pane")
	folders := uia.NewElement("lstFolders", "Folders", uia.ListControl)
	folders.SetDescription("Places; click a folder to show its files")
	side.Custom(folders)
	f.folders = folders
	for _, folder := range f.FS.Folders {
		f.addFolderItem(folder)
	}

	area := f.Window().Pane("pnlFileArea", "File Area")
	lst := uia.NewElement("lstFiles", "Files", uia.ListControl)
	lst.SetDescription("Files in the current folder; the scrollbar pans the list")
	area.Custom(lst)
	f.fileList = lst
	f.sel = uia.NewSelectionList(true, func(items []*uia.Element) {
		var selected []*File
		for _, it := range items {
			if file, ok := f.byItem[it]; ok {
				selected = append(selected, file)
			}
		}
		uia.Store(f.Win, &f.selected, selected)
		if len(f.selected) == 1 {
			f.loadPreview(f.selected[0])
		}
	})
	lst.SetPattern(uia.SelectionPattern, f.sel)
	for _, folder := range f.FS.Folders {
		for _, file := range folder.Files {
			f.addRow(folder, file)
		}
	}
	area.VScrollBar("sbFiles", "Files Vertical Scroll Bar", func(_ *appkit.App, v float64) {
		f.ScrollTo(v)
	})

	prev := f.Window().Pane("pnlPreview", "Preview Pane")
	f.previewText = &uia.SimpleText{}
	doc := prev.Document("docPreview", "Preview", f.previewText)
	doc.SetDescription("Text preview of the opened file")
	f.preview = doc

	status := f.Window().Pane("pnlStatusBarF", "Status Bar")
	status.Label("7 folders")

	f.applyViewport()
}

// addFolderItem appends a sidebar entry for the folder.
func (f *App) addFolderItem(folder *Folder) {
	it := uia.NewElement("fld"+strings.ReplaceAll(folder.Name, " ", ""),
		folder.Name, uia.ListItemControl)
	it.SetDescription("Show the files in " + folder.Name)
	name := folder.Name
	it.OnClick(func(*uia.Element) { f.SetFolder(name) })
	f.folders.AddChild(it)
}

// addRow appends one file row: the name-identified list item plus the
// options button that opens the shared context menu bound to this file.
func (f *App) addRow(folder *Folder, file *File) {
	seq := f.rowSeq[folder.Name]
	f.rowSeq[folder.Name] = seq + 1
	row := uia.NewElement(fmt.Sprintf("row%s%d", strings.ReplaceAll(folder.Name, " ", ""), seq),
		"", uia.PaneControl)
	f.fileList.AddChild(row)

	// Deliberately no automation id: the synthesized identifier is the file
	// name, so a rename drifts the live id away from the offline model and
	// exercises the fuzzy matcher (§3.4, §6).
	it := uia.NewElement("", file.Name, uia.ListItemControl)
	it.SetDescription(file.Kind + " file, " + fmt.Sprintf("%d KB", file.Size))
	it.SetPattern(uia.SelectionItemPattern, f.sel.Item())
	row.AddChild(it)

	opts := uia.NewElement("", "More options", uia.SplitButtonControl)
	opts.SetDescription("Actions for this file")
	// The file is looked up when clicked, since Reset gives a row a new
	// file.
	opts.OnClick(func(*uia.Element) { f.ctxMenu.Open(f.byItem[it]) })
	row.AddChild(opts)

	f.rows[file] = row
	f.items[file] = it
	f.byItem[it] = file
}

// SetFolder switches the file area to the named folder.
func (f *App) SetFolder(name string) {
	if f.FS.Folder(name) == nil {
		return
	}
	uia.Store(f.Win, &f.Current, name)
	uia.Store(f.Win, &f.viewTop, 0)
	f.applyViewport()
}

// eligible returns the current folder's files in row order, honouring the
// deletion marks and the hidden filter.
func (f *App) eligible() []*File {
	folder := f.FS.Folder(f.Current)
	if folder == nil {
		return nil
	}
	var out []*File
	for _, file := range folder.Files {
		if file.Deleted {
			continue
		}
		if file.Hidden && !f.ShowHidden {
			continue
		}
		out = append(out, file)
	}
	return out
}

// applyViewport shows the viewport window of the current folder's rows and
// hides everything else.
func (f *App) applyViewport() {
	visible := make(map[*File]bool)
	for i, file := range f.eligible() {
		if i >= f.viewTop && i < f.viewTop+VisibleRows {
			visible[file] = true
		}
	}
	for file, row := range f.rows {
		row.SetVisible(visible[file])
	}
}

// ScrollTo pans the file list viewport to v% of its scroll range.
func (f *App) ScrollTo(v float64) {
	maxTop := len(f.eligible()) - VisibleRows
	if maxTop < 0 {
		maxTop = 0
	}
	top := int(v/100*float64(maxTop) + 0.5)
	if top < 0 {
		top = 0
	}
	if top > maxTop {
		top = maxTop
	}
	uia.Store(f.Win, &f.viewTop, top)
	f.applyViewport()
}

// ViewTop returns the index of the first visible row.
func (f *App) ViewTop() int { return f.viewTop }

// Selected returns the files currently selected in the list.
func (f *App) Selected() []*File { return append([]*File(nil), f.selected...) }

// PreviewOf returns the file shown in the preview pane, or nil.
func (f *App) PreviewOf() *File { return f.previewOf }

// PreviewPattern exposes the preview pane's text pattern (for tests).
func (f *App) PreviewPattern() *uia.SimpleText { return f.previewText }

// Item returns the live list item element for a file (for tests).
func (f *App) Item(file *File) *uia.Element { return f.items[file] }

// loadPreview shows the file's text content in the preview pane.
func (f *App) loadPreview(file *File) {
	uia.Store(f.Win, &f.previewOf, file)
	f.previewText.ClearSelection(f.preview)
	var lines []string
	if file != nil {
		lines = append(lines, file.PreviewText()...)
	}
	uia.Store(f.Win, &f.previewText.Lines, lines)
}

// copyPreviewText copies the preview selection (or, with no selection, the
// whole preview) into the text clipboard.
func (f *App) copyPreviewText() {
	text := f.previewText.SelectedText()
	if text == "" {
		text = strings.Join(f.previewText.Lines, "\n")
	}
	uia.Store(f.Win, &f.FS.TextClipboard, text)
}

// toClipboard loads the target files into the file clipboard.
func (f *App) toClipboard(cut bool) {
	targets := f.Targets()
	if len(targets) == 0 {
		return
	}
	f.setClipboard(append([]*File(nil), targets...), cut)
}

// folderOf returns the folder name containing the file ("" if unknown).
func (f *App) folderOf(file *File) string {
	for _, folder := range f.FS.Folders {
		for _, x := range folder.Files {
			if x == file {
				return folder.Name
			}
		}
	}
	return ""
}

// paste materializes the clipboard into the current folder: a cut moves the
// files (and their rows), a copy duplicates them.
func (f *App) paste() {
	if len(f.FS.Clipboard) == 0 {
		return
	}
	dst := f.FS.Folder(f.Current)
	if dst == nil {
		return
	}
	for _, file := range f.FS.Clipboard {
		if f.FS.ClipCut {
			if src := f.FS.Folder(f.folderOf(file)); src != nil && src != dst {
				f.FS.Remove(src, file)
				dst.Files = append(dst.Files, file)
				// Physically re-home the row so viewport bookkeeping stays
				// folder-local.
				if row := f.rows[file]; row != nil {
					f.fileList.RemoveChild(row)
					delete(f.rows, file)
					delete(f.byItem, f.items[file])
					delete(f.items, file)
				}
				f.addRow(dst, file)
			}
		} else {
			dup := *file
			dst.Files = append(dst.Files, &dup)
			f.addRow(dst, &dup)
		}
	}
	f.setClipboard(nil, false)
	f.applyViewport()
}

// applyRename renames the single target file and drifts the live list item's
// identity with it.
func (f *App) applyRename() {
	name := strings.TrimSpace(f.pendingRename)
	targets := f.Targets()
	if name == "" || len(targets) != 1 {
		return
	}
	file := targets[0]
	file.Name = name
	if it := f.items[file]; it != nil {
		it.SetName(name)
	}
}

// applyDelete marks the target files deleted (restorable by soft reset, so
// the ripper's exploration stays a pure function of the click path).
func (f *App) applyDelete() {
	for _, file := range f.Targets() {
		if !file.Deleted {
			uia.Store(f.Win, &file.Deleted, true)
			// Clipped, the append copies: a trash the log holds keeps its
			// contents.
			uia.Store(f.Win, &f.FS.Trash, append(slices.Clip(f.FS.Trash), file.Name))
		}
	}
	f.applyViewport()
}

// applyNewFolder creates an empty folder and its sidebar entry.
func (f *App) applyNewFolder() {
	name := strings.TrimSpace(f.pendingFolder)
	if name == "" || f.FS.Folder(name) != nil {
		return
	}
	folder := &Folder{Name: name}
	f.FS.Folders = append(f.FS.Folders, folder)
	f.addFolderItem(folder)
}
