// Package filemgr implements a simulated file manager ("Files"): a folder
// sidebar, a scrollable multi-select file list with per-file context menus,
// rename/delete/new-folder dialogs, and a text preview pane. It is the
// list-and-selection-state member of the application catalog, stressing the
// state declarations (scrollbar over the list viewport, select_lines over
// the preview, select_controls over file items) and the fuzzy control
// matcher: file items are name-identified, so renaming a file drifts its
// synthesized identifier away from the offline model exactly like the
// paper's §6 "Find Next"→"Go To" example.
package filemgr

import "strings"

// File is one entry of a folder.
type File struct {
	Name    string
	Size    int // kilobytes
	Kind    string
	Hidden  bool
	Content []string // preview lines for text files

	// Deleted marks a trashed file. Deletion is a mark rather than removal,
	// written through the undo seam, so a rewind restores it — the property
	// the GUI ripper's cursor depends on (see ung.Cursor).
	Deleted bool
}

// Folder is a named list of files.
type Folder struct {
	Name  string
	Files []*File
}

// FS is the file-system model beneath the UI. All toolbar and context-menu
// interaction mutates it, and task verification reads it back.
type FS struct {
	Folders []*Folder

	// Trash records deleted file names in deletion order.
	Trash []string

	// Clipboard holds cut or copied files; ClipCut marks a pending move.
	// (paste derives each file's source folder itself, so no source
	// bookkeeping is kept here.)
	Clipboard []*File
	ClipCut   bool

	// TextClipboard holds text copied out of the preview pane.
	TextClipboard string
}

// NewFS builds the default tree the simulator starts with.
func NewFS() *FS {
	text := func(lines ...string) []string { return lines }
	return &FS{Folders: []*Folder{
		{Name: "Documents", Files: []*File{
			{Name: "notes.txt", Size: 4, Kind: "Text", Content: text(
				"Meeting notes, Monday:",
				"Ship the quarterly report by Friday.",
				"Review the budget draft with finance.",
				"Schedule the planning offsite.",
				"Collect feedback from the pilot users.",
				"Archive last year's contracts.")},
			{Name: "report_draft.txt", Size: 18, Kind: "Text", Content: text(
				"Quarterly report — DRAFT",
				"Revenue grew moderately across regions.",
				"Costs were dominated by infrastructure.")},
			{Name: "old_notes.txt", Size: 2, Kind: "Text", Content: text(
				"Stale notes from the previous quarter.")},
			{Name: "budget.xlsx", Size: 96, Kind: "Spreadsheet"},
			{Name: "minutes.txt", Size: 6, Kind: "Text", Content: text(
				"Minutes of the steering committee.")},
			{Name: "todo.txt", Size: 1, Kind: "Text", Content: text(
				"[ ] book travel", "[ ] send invoices")},
			{Name: "contract_scan.pdf", Size: 420, Kind: "PDF"},
			{Name: ".drafts.tmp", Size: 1, Kind: "Text", Hidden: true},
		}},
		{Name: "Pictures", Files: []*File{
			{Name: "photo1.jpg", Size: 2048, Kind: "Image"},
			{Name: "photo2.jpg", Size: 1890, Kind: "Image"},
			{Name: "photo3.jpg", Size: 2210, Kind: "Image"},
			{Name: "photo4.jpg", Size: 1750, Kind: "Image"},
			{Name: "screenshot.png", Size: 310, Kind: "Image"},
			{Name: "wallpaper.png", Size: 890, Kind: "Image"},
		}},
		{Name: "Music", Files: []*File{
			{Name: "track01.mp3", Size: 5120, Kind: "Audio"},
			{Name: "track02.mp3", Size: 4980, Kind: "Audio"},
			{Name: "track03.mp3", Size: 5360, Kind: "Audio"},
			{Name: "podcast_ep12.mp3", Size: 20480, Kind: "Audio"},
			{Name: "podcast_ep13.mp3", Size: 19870, Kind: "Audio"},
			{Name: "voicememo.m4a", Size: 350, Kind: "Audio"},
			{Name: "playlist.m3u", Size: 1, Kind: "Playlist"},
		}},
		{Name: "Videos", Files: []*File{
			{Name: "demo_recording.mp4", Size: 154200, Kind: "Video"},
			{Name: "standup_monday.mp4", Size: 88400, Kind: "Video"},
			{Name: "tutorial_clip.mov", Size: 45100, Kind: "Video"},
			{Name: "launch_teaser.mp4", Size: 120300, Kind: "Video"},
			{Name: "subtitles.srt", Size: 12, Kind: "Text", Content: []string{
				"1", "00:00:01 --> 00:00:04", "Welcome to the demo."}},
			{Name: "thumbnail.png", Size: 220, Kind: "Image"},
		}},
		{Name: "Downloads", Files: []*File{
			{Name: "manual.pdf", Size: 1200, Kind: "PDF"},
			{Name: "dataset.csv", Size: 780, Kind: "Data"},
			{Name: "installer.pkg", Size: 88210, Kind: "Package"},
			{Name: "release_notes.txt", Size: 3, Kind: "Text", Content: text(
				"v2.1: faster indexing, bug fixes.")},
			{Name: "conference_slides.pdf", Size: 3400, Kind: "PDF"},
			{Name: "fonts_bundle.zip", Size: 15200, Kind: "Archive"},
			{Name: "invoice_0423.pdf", Size: 180, Kind: "PDF"},
			{Name: ".partial.crdownload", Size: 512, Kind: "Download", Hidden: true},
		}},
		{Name: "Desktop", Files: []*File{
			{Name: "shortcuts.txt", Size: 1, Kind: "Text", Content: text(
				"ctrl+t new tab", "ctrl+l address bar")},
			{Name: "scratchpad.txt", Size: 2, Kind: "Text", Content: text(
				"ideas for the retro")},
			{Name: "team_photo.jpg", Size: 2890, Kind: "Image"},
			{Name: "quarterly_okrs.xlsx", Size: 64, Kind: "Spreadsheet"},
			{Name: "recycle_info.log", Size: 3, Kind: "Log"},
		}},
		{Name: "Projects", Files: []*File{
			{Name: "proj_alpha.go", Size: 12, Kind: "Code"},
			{Name: "proj_beta.go", Size: 9, Kind: "Code"},
			{Name: "proj_gamma.go", Size: 14, Kind: "Code"},
			{Name: "proj_delta.go", Size: 7, Kind: "Code"},
			{Name: "design_spec.md", Size: 22, Kind: "Text", Content: text(
				"Design spec", "Goals and non-goals.", "Open questions.")},
			{Name: "benchmarks.txt", Size: 5, Kind: "Text", Content: text(
				"run1: 3.2s", "run2: 3.1s")},
			{Name: "makefile", Size: 2, Kind: "Build"},
			{Name: "readme.md", Size: 4, Kind: "Text", Content: text(
				"Project readme", "Build with make.", "Test with make test.")},
			{Name: "archive_2023.zip", Size: 51200, Kind: "Archive"},
			{Name: "archive_2024.zip", Size: 61440, Kind: "Archive"},
			{Name: "profiling.out", Size: 830, Kind: "Data"},
			{Name: "coverage.html", Size: 96, Kind: "Report"},
			{Name: "deps.lock", Size: 11, Kind: "Build"},
			{Name: "todo_projects.txt", Size: 1, Kind: "Text", Content: text(
				"[ ] merge beta branch")},
		}},
	}}
}

// Folder returns the named folder, or nil.
func (fs *FS) Folder(name string) *Folder {
	for _, f := range fs.Folders {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// File returns the named, non-deleted file in the named folder, or nil.
func (fs *FS) File(folder, name string) *File {
	fo := fs.Folder(folder)
	if fo == nil {
		return nil
	}
	for _, f := range fo.Files {
		if f.Name == name && !f.Deleted {
			return f
		}
	}
	return nil
}

// Has reports whether the folder contains a file with the name.
func (fs *FS) Has(folder, name string) bool { return fs.File(folder, name) != nil }

// Remove deletes the file from the folder, returning whether it was found.
func (fs *FS) Remove(folder *Folder, file *File) bool {
	for i, f := range folder.Files {
		if f == file {
			folder.Files = append(folder.Files[:i], folder.Files[i+1:]...)
			return true
		}
	}
	return false
}

// Trashed reports whether a file name was deleted.
func (fs *FS) Trashed(name string) bool {
	for _, n := range fs.Trash {
		if n == name {
			return true
		}
	}
	return false
}

// PreviewText joins a text file's content for the preview pane; non-text
// files preview as a one-line placeholder.
func (f *File) PreviewText() []string {
	if len(f.Content) > 0 {
		return f.Content
	}
	return []string{"(no text preview for " + strings.ToLower(f.Kind) + " files)"}
}
