// Package catalog provides the bulk content of the simulated Office
// applications: font families, symbol sets, worksheet functions, style and
// theme names, shape and icon inventories. These drive the large
// enumerations that give the modeled applications their realistic scale
// (each exposes >4K controls, paper §5.1) and that core-topology extraction
// must prune (paper §3.3).
//
// Every list the package exports or returns is shared by all its users and
// must not be modified: simulators build gallery and combo-box items from
// these slices when the list is first opened, possibly long after
// construction.
package catalog

import (
	"fmt"
	"sort"
	"sync"
)

// FontFamilies is the base list of font family names.
var FontFamilies = []string{
	"Arial", "Arial Black", "Bahnschrift", "Baskerville", "Bodoni MT",
	"Book Antiqua", "Bookman Old Style", "Calibri", "Cambria", "Candara",
	"Cascadia Code", "Castellar", "Centaur", "Century", "Century Gothic",
	"Comic Sans MS", "Consolas", "Constantia", "Corbel", "Courier New",
	"Didot", "Dubai", "Ebrima", "Elephant", "Eras ITC", "Fira Sans",
	"Franklin Gothic", "Futura", "Gabriola", "Gadugi", "Garamond",
	"Georgia", "Gill Sans MT", "Goudy Old Style", "Haettenschweiler",
	"Harlow Solid", "Helvetica", "High Tower Text", "Impact", "Ink Free",
	"Javanese Text", "Jokerman", "Kristen ITC", "Lato", "Leelawadee UI",
	"Lucida Console", "Lucida Sans", "Magneto", "Maiandra GD", "Merriweather",
	"Microsoft Sans Serif", "Mistral", "Modern No. 20", "Mongolian Baiti",
	"Monotype Corsiva", "Montserrat", "MV Boli", "Myanmar Text", "Niagara",
	"Nirmala UI", "Noto Sans", "Onyx", "Open Sans", "Palatino Linotype",
	"Papyrus", "Perpetua", "Playbill", "PMingLiU", "Poppins", "Pristina",
	"Raleway", "Ravie", "Roboto", "Rockwell", "Segoe Print", "Segoe Script",
	"Segoe UI", "Showcard Gothic", "SimSun", "Sitka", "Snap ITC",
	"Source Sans Pro", "Stencil", "Sylfaen", "Tahoma", "Tempus Sans ITC",
	"Times New Roman", "Trebuchet MS", "Tw Cen MT", "Ubuntu", "Verdana",
	"Viner Hand ITC", "Vivaldi", "Vladimir Script", "Wide Latin",
	"Yu Gothic", "Zapfino",
}

// FontVariants multiply the family list into the full font list.
var FontVariants = []string{"", " Light", " Semibold", " Condensed"}

// Fonts returns the full font list (families × variants).
// The list is built once per process and shared by every caller, so it
// is read-only: galleries and combo boxes keep it to build their items
// when first opened.
func Fonts() []string { return fonts() }

var fonts = sync.OnceValue(func() []string {
	out := make([]string, 0, len(FontFamilies)*len(FontVariants))
	for _, f := range FontFamilies {
		for _, v := range FontVariants {
			out = append(out, f+v)
		}
	}
	return out
})

// FontSizes is the standard font size dropdown.
var FontSizes = []string{"8", "9", "10", "10.5", "11", "12", "14", "16", "18",
	"20", "22", "24", "26", "28", "36", "48", "72"}

// Symbols returns n symbol names ("Symbol U+00A1 (Set k)"), the Insert →
// Symbol grid.
func Symbols(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("Symbol U+%04X (Set %d)", 0xA1+i, i/64+1)
	}
	return out
}

// Icons returns n stock icon names, the Insert → Icons gallery (one of the
// genuinely huge enumerations in modern Office).
func Icons(n int) []string {
	themes := []string{"Accessibility", "Analytics", "Animals", "Arrows",
		"Body parts", "Buildings", "Business", "Celebration", "Commerce",
		"Communication", "Education", "Faces", "Food", "Holidays", "Home",
		"Interface", "Location", "Medical", "Nature", "People", "Process",
		"Security", "Signs", "Sports", "Technology", "Tools", "Travel",
		"Vehicles", "Weather", "Work"}
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s icon %d", themes[i%len(themes)], i/len(themes)+1)
	}
	return out
}

// WordStyles is the Word style gallery.
var WordStyles = []string{
	"Normal", "No Spacing", "Heading 1", "Heading 2", "Heading 3", "Heading 4",
	"Heading 5", "Heading 6", "Heading 7", "Heading 8", "Heading 9", "Title",
	"Subtitle", "Subtle Emphasis", "Emphasis", "Intense Emphasis", "Strong",
	"Quote", "Intense Quote", "Subtle Reference", "Intense Reference",
	"Book Title", "List Paragraph", "Caption", "TOC Heading", "Bibliography",
	"Footnote Text", "Header", "Footer", "Plain Text", "Body Text",
	"Body Text Indent", "List Bullet", "List Number", "List Continue",
	"Signature", "Salutation", "Date", "Envelope Address", "Envelope Return",
	"Hyperlink", "Macro Text", "Balloon Text", "Comment Text", "Title Dark",
	"Block Text", "Closing", "Default Paragraph Font", "Document Map",
	"E-mail Signature", "Endnote Text", "HTML Acronym", "HTML Address",
	"HTML Cite", "HTML Code", "HTML Keyboard", "HTML Sample",
	"HTML Typewriter", "HTML Variable", "Index 1", "Index 2", "Index 3",
	"Line Number", "Message Header", "Normal Indent", "Note Heading",
	"Page Number", "Table of Authorities", "TOA Heading",
}

// ThemeNames is the document theme gallery shared by all three apps.
var ThemeNames = []string{
	"Office", "Facet", "Integral", "Ion", "Ion Boardroom", "Organic",
	"Retrospect", "Slice", "Wisp", "Banded", "Basis", "Berlin", "Celestial",
	"Circuit", "Damask", "Depth", "Dividend", "Droplet", "Frame", "Gallery",
	"Headlines", "Main Event", "Mesh", "Metropolitan", "Parallax", "Parcel",
	"Quotable", "Savon", "Slate", "Vapor Trail", "View", "Wood Type",
	"Badge", "Crop", "Feathered", "Madison", "Atlas", "Dividers", "Oriel",
	"Origin", "Paper", "Solstice", "Technic", "Trek",
}

// ShapeNames returns the Insert → Shapes gallery.
// The list is built once per process and shared by every caller, so it
// is read-only: galleries and combo boxes keep it to build their items
// when first opened.
func ShapeNames() []string { return shapeNames() }

var shapeNames = sync.OnceValue(func() []string {
	groups := map[string][]string{
		"Line": {"Line", "Arrow", "Double Arrow", "Elbow Connector",
			"Curved Connector", "Curve", "Freeform", "Scribble"},
		"Rectangle": {"Rectangle", "Rounded Rectangle", "Snip Single Corner",
			"Snip Same Side", "Snip Diagonal", "Round Single Corner",
			"Round Same Side", "Round Diagonal"},
		"Basic Shape": {"Oval", "Triangle", "Right Triangle", "Parallelogram",
			"Trapezoid", "Diamond", "Pentagon", "Hexagon", "Heptagon",
			"Octagon", "Decagon", "Dodecagon", "Pie", "Chord", "Teardrop",
			"Frame", "Half Frame", "L-Shape", "Diagonal Stripe", "Cross",
			"Plaque", "Can", "Cube", "Bevel", "Donut", "No Symbol",
			"Block Arc", "Folded Corner", "Smiley Face", "Heart",
			"Lightning Bolt", "Sun", "Moon", "Cloud", "Arc", "Bracket Pair",
			"Brace Pair", "Left Bracket", "Right Bracket", "Left Brace",
			"Right Brace"},
		"Block Arrow": {"Right Arrow", "Left Arrow", "Up Arrow", "Down Arrow",
			"Left-Right Arrow", "Up-Down Arrow", "Quad Arrow",
			"Left-Right-Up Arrow", "Bent Arrow", "U-Turn Arrow",
			"Left-Up Arrow", "Bent-Up Arrow", "Curved Right Arrow",
			"Curved Left Arrow", "Curved Up Arrow", "Curved Down Arrow",
			"Striped Right Arrow", "Notched Right Arrow", "Pentagon Arrow",
			"Chevron Arrow", "Right Arrow Callout", "Down Arrow Callout",
			"Left Arrow Callout", "Up Arrow Callout", "Left-Right Callout",
			"Quad Arrow Callout", "Circular Arrow"},
		"Equation Shape": {"Plus", "Minus", "Multiply", "Division", "Equal",
			"Not Equal"},
		"Flowchart": {"Process", "Alternate Process", "Decision",
			"Data", "Predefined Process", "Internal Storage",
			"Flowchart Document", "Multidocument", "Terminator", "Preparation",
			"Manual Input", "Manual Operation", "Connector", "Off-page Connector",
			"Card", "Punched Tape", "Summing Junction", "Or", "Collate",
			"Sort", "Extract", "Merge", "Stored Data", "Delay",
			"Sequential Access Storage", "Magnetic Disk", "Direct Access Storage",
			"Display"},
		"Star and Banner": {"Explosion 8pt", "Explosion 14pt", "Star 4pt",
			"Star 5pt", "Star 6pt", "Star 7pt", "Star 8pt", "Star 10pt",
			"Star 12pt", "Star 16pt", "Star 24pt", "Star 32pt",
			"Up Ribbon", "Down Ribbon", "Curved Up Ribbon", "Curved Down Ribbon",
			"Vertical Scroll", "Horizontal Scroll", "Wave", "Double Wave"},
		"Callout": {"Speech Bubble: Rectangle", "Speech Bubble: Rounded",
			"Speech Bubble: Oval", "Thought Bubble: Cloud",
			"Line Callout 1", "Line Callout 2", "Line Callout 3",
			"Line Callout 1 (Accent Bar)", "Line Callout 2 (Accent Bar)",
			"Line Callout 1 (No Border)", "Line Callout 2 (No Border)"},
	}
	order := []string{"Line", "Rectangle", "Basic Shape", "Block Arrow",
		"Equation Shape", "Flowchart", "Star and Banner", "Callout"}
	var out []string
	for _, g := range order {
		for _, s := range groups[g] {
			out = append(out, s+" ("+g+")")
		}
	}
	return out
})

// ExcelFunctions returns the Formulas-tab function library, grouped.
func ExcelFunctions() map[string][]string {
	return map[string][]string{
		"Financial": {"ACCRINT", "ACCRINTM", "AMORDEGRC", "AMORLINC",
			"COUPDAYBS", "COUPDAYS", "COUPDAYSNC", "COUPNCD", "COUPNUM",
			"COUPPCD", "CUMIPMT", "CUMPRINC", "DB", "DDB", "DISC", "DOLLARDE",
			"DOLLARFR", "DURATION", "EFFECT", "FV", "FVSCHEDULE", "INTRATE",
			"IPMT", "IRR", "ISPMT", "MDURATION", "MIRR", "NOMINAL", "NPER",
			"NPV", "ODDFPRICE", "ODDFYIELD", "ODDLPRICE", "ODDLYIELD", "PMT",
			"PPMT", "PRICE", "PRICEDISC", "PRICEMAT", "PV", "RATE", "RECEIVED",
			"SLN", "SYD", "TBILLEQ", "TBILLPRICE", "TBILLYIELD", "VDB",
			"XIRR", "XNPV", "YIELD", "YIELDDISC", "YIELDMAT"},
		"Logical": {"AND", "FALSE", "IF", "IFERROR", "IFNA", "IFS", "NOT",
			"OR", "SWITCH", "TRUE", "XOR"},
		"Text": {"ASC", "BAHTTEXT", "CHAR", "CLEAN", "CODE", "CONCAT",
			"CONCATENATE", "DOLLAR", "EXACT", "FIND", "FIXED", "LEFT", "LEN",
			"LOWER", "MID", "NUMBERVALUE", "PROPER", "REPLACE", "REPT",
			"RIGHT", "SEARCH", "SUBSTITUTE", "T", "TEXT", "TEXTJOIN", "TRIM",
			"UNICHAR", "UNICODE", "UPPER", "VALUE"},
		"Date & Time": {"DATE", "DATEDIF", "DATEVALUE", "DAY", "DAYS",
			"DAYS360", "EDATE", "EOMONTH", "HOUR", "ISOWEEKNUM", "MINUTE",
			"MONTH", "NETWORKDAYS", "NOW", "SECOND", "TIME", "TIMEVALUE",
			"TODAY", "WEEKDAY", "WEEKNUM", "WORKDAY", "YEAR", "YEARFRAC"},
		"Lookup & Reference": {"ADDRESS", "AREAS", "CHOOSE", "COLUMN",
			"COLUMNS", "FILTER", "FORMULATEXT", "GETPIVOTDATA", "HLOOKUP",
			"HYPERLINK", "INDEX", "INDIRECT", "LOOKUP", "MATCH", "OFFSET",
			"ROW", "ROWS", "SORT", "SORTBY", "TRANSPOSE", "UNIQUE", "VLOOKUP",
			"XLOOKUP", "XMATCH"},
		"Statistical": {"AVEDEV", "AVERAGE", "AVERAGEA", "AVERAGEIF",
			"AVERAGEIFS", "BETA.DIST", "BINOM.DIST", "CHISQ.TEST", "CONFIDENCE.NORM",
			"CORREL", "COUNT", "COUNTA", "COUNTBLANK", "COUNTIF", "COUNTIFS",
			"COVARIANCE.P", "DEVSQ", "EXPON.DIST", "F.TEST", "FORECAST.LINEAR",
			"FREQUENCY", "GEOMEAN", "HARMEAN", "KURT", "LARGE", "LINEST",
			"MAX", "MAXIFS", "MEDIAN", "MIN", "MINIFS", "MODE.SNGL",
			"NORM.DIST", "PERCENTILE.INC", "QUARTILE.INC", "RANK.EQ", "SKEW",
			"SLOPE", "SMALL", "STDEV.P", "STDEV.S", "T.TEST", "TREND",
			"TRIMMEAN", "VAR.P", "VAR.S", "Z.TEST"},
		"Math & Trig": {"ABS", "ACOS", "ACOSH", "ASIN", "ASINH", "ATAN",
			"ATAN2", "ATANH", "CEILING", "COMBIN", "COS", "COSH", "DEGREES",
			"EVEN", "EXP", "FACT", "FLOOR", "GCD", "INT", "LCM", "LN", "LOG",
			"LOG10", "MOD", "MROUND", "ODD", "PI", "POWER", "PRODUCT",
			"QUOTIENT", "RADIANS", "RAND", "RANDBETWEEN", "ROMAN", "ROUND",
			"ROUNDDOWN", "ROUNDUP", "SIGN", "SIN", "SINH", "SQRT", "SUBTOTAL",
			"SUM", "SUMIF", "SUMIFS", "SUMPRODUCT", "TAN", "TANH", "TRUNC"},
	}
}

// ExcelFunctionCategories returns the function-library category names in
// sorted order. UI builders must iterate categories through this list, never
// by ranging the ExcelFunctions map directly: map iteration order varies per
// instance, and two App instances whose ribbons disagree on child order can
// never rip to byte-identical graphs.
func ExcelFunctionCategories() []string {
	fns := ExcelFunctions()
	cats := make([]string, 0, len(fns))
	for cat := range fns {
		cats = append(cats, cat)
	}
	sort.Strings(cats)
	return cats
}

// NumberFormats is the Excel number-format dropdown.
var NumberFormats = []string{
	"General", "Number", "Currency", "Accounting", "Short Date", "Long Date",
	"Time", "Percentage", "Fraction", "Scientific", "Text",
}

// CellStyles is the Excel cell styles gallery.
var CellStyles = []string{
	"Normal", "Bad", "Good", "Neutral", "Calculation", "Check Cell",
	"Explanatory Text", "Input", "Linked Cell", "Note", "Output",
	"Warning Text", "Heading 1", "Heading 2", "Heading 3", "Heading 4",
	"Title", "Total", "20% - Accent1", "20% - Accent2", "20% - Accent3",
	"20% - Accent4", "20% - Accent5", "20% - Accent6", "40% - Accent1",
	"40% - Accent2", "40% - Accent3", "40% - Accent4", "40% - Accent5",
	"40% - Accent6", "60% - Accent1", "60% - Accent2", "60% - Accent3",
	"60% - Accent4", "60% - Accent5", "60% - Accent6", "Accent1", "Accent2",
	"Accent3", "Accent4", "Accent5", "Accent6", "Comma", "Comma [0]",
	"Currency", "Currency [0]", "Percent",
}

// ChartTypes is the Insert → Charts dialog inventory.
var ChartTypes = []string{
	"Clustered Column", "Stacked Column", "100% Stacked Column",
	"3-D Clustered Column", "3-D Stacked Column", "3-D Column",
	"Line", "Stacked Line", "100% Stacked Line", "Line with Markers",
	"Stacked Line with Markers", "3-D Line",
	"Pie", "3-D Pie", "Pie of Pie", "Bar of Pie", "Doughnut",
	"Clustered Bar", "Stacked Bar", "100% Stacked Bar",
	"3-D Clustered Bar", "3-D Stacked Bar",
	"Area", "Stacked Area", "100% Stacked Area", "3-D Area",
	"Scatter", "Scatter with Smooth Lines", "Scatter with Straight Lines",
	"Bubble", "3-D Bubble", "Stock High-Low-Close", "Stock Open-High-Low-Close",
	"Surface", "Wireframe Surface", "Contour", "Wireframe Contour",
	"Radar", "Radar with Markers", "Filled Radar", "Treemap", "Sunburst",
	"Histogram", "Pareto", "Box and Whisker", "Waterfall", "Funnel",
	"Map", "Combo",
}

// Transitions is the PowerPoint transition gallery.
var Transitions = []string{
	"None", "Morph", "Fade", "Push", "Wipe", "Split", "Reveal", "Cut",
	"Random Bars", "Shape", "Uncover", "Cover", "Flash", "Fall Over",
	"Drape", "Curtains", "Wind", "Prestige", "Fracture", "Crush",
	"Peel Off", "Page Curl", "Airplane", "Origami", "Dissolve",
	"Checkerboard", "Blinds", "Clock", "Ripple", "Honeycomb", "Glitter",
	"Vortex", "Shred", "Switch", "Flip", "Gallery", "Cube", "Doors", "Box",
	"Comb", "Zoom", "Random", "Ferris Wheel", "Conveyor", "Rotate",
	"Orbit", "Fly Through", "Pan",
}

// Animations is the PowerPoint animation gallery.
// The list is built once per process and shared by every caller, so it
// is read-only: galleries and combo boxes keep it to build their items
// when first opened.
func Animations() []string { return animations() }

var animations = sync.OnceValue(func() []string {
	entrance := []string{"Appear", "Fade", "Fly In", "Float In", "Split",
		"Wipe", "Shape", "Wheel", "Random Bars", "Grow & Turn", "Zoom",
		"Swivel", "Bounce"}
	emphasis := []string{"Pulse", "Color Pulse", "Teeter", "Spin",
		"Grow/Shrink", "Desaturate", "Darken", "Lighten", "Transparency",
		"Object Color", "Complementary Color", "Line Color", "Fill Color",
		"Brush Color", "Font Color", "Underline", "Bold Flash", "Bold Reveal",
		"Wave"}
	exit := []string{"Disappear", "Fade Out", "Fly Out", "Float Out",
		"Split Out", "Wipe Out", "Shape Out", "Wheel Out", "Random Bars Out",
		"Shrink & Turn", "Zoom Out", "Swivel Out", "Bounce Out"}
	paths := []string{"Lines", "Arcs", "Turns", "Shapes", "Loops",
		"Custom Path"}
	var out []string
	for _, s := range entrance {
		out = append(out, s+" (Entrance)")
	}
	for _, s := range emphasis {
		out = append(out, s+" (Emphasis)")
	}
	for _, s := range exit {
		out = append(out, s+" (Exit)")
	}
	for _, s := range paths {
		out = append(out, s+" (Motion Path)")
	}
	return out
})

// SlideLayouts is the New Slide layout gallery.
var SlideLayouts = []string{
	"Title Slide", "Title and Content", "Section Header", "Two Content",
	"Comparison", "Title Only", "Blank", "Content with Caption",
	"Picture with Caption", "Title and Vertical Text",
	"Vertical Title and Text",
}

// BorderStyles is the Borders dropdown (Word tables / Excel cells).
var BorderStyles = []string{
	"Bottom Border", "Top Border", "Left Border", "Right Border",
	"No Border", "All Borders", "Outside Borders", "Inside Borders",
	"Inside Horizontal Border", "Inside Vertical Border",
	"Diagonal Down Border", "Diagonal Up Border", "Horizontal Line",
	"Draw Table", "View Gridlines", "Borders and Shading",
}

// PageNumberFormats is Word's Insert → Page Number gallery.
// The list is built once per process and shared by every caller, so it
// is read-only: galleries and combo boxes keep it to build their items
// when first opened.
func PageNumberFormats() []string { return pageNumberFormats() }

var pageNumberFormats = sync.OnceValue(func() []string {
	positions := []string{"Top of Page", "Bottom of Page", "Page Margins",
		"Current Position"}
	styles := []string{"Plain Number 1", "Plain Number 2", "Plain Number 3",
		"Accent Bar 1", "Accent Bar 2", "Banded", "Bold Numbers 1",
		"Bold Numbers 2", "Brackets 1", "Brackets 2", "Circle", "Large Color",
		"Roman", "Tildes", "Triangle"}
	var out []string
	for _, p := range positions {
		for _, s := range styles {
			out = append(out, p+": "+s)
		}
	}
	return out
})

// Languages is the proofing-language list.
// The list is built once per process and shared by every caller, so it
// is read-only: galleries and combo boxes keep it to build their items
// when first opened.
func Languages() []string { return languages() }

var languages = sync.OnceValue(func() []string {
	base := []string{"Afrikaans", "Albanian", "Arabic", "Armenian", "Basque",
		"Belarusian", "Bengali", "Bosnian", "Bulgarian", "Catalan", "Chinese",
		"Croatian", "Czech", "Danish", "Dutch", "English", "Estonian",
		"Filipino", "Finnish", "French", "Galician", "Georgian", "German",
		"Greek", "Gujarati", "Hebrew", "Hindi", "Hungarian", "Icelandic",
		"Indonesian", "Irish", "Italian", "Japanese", "Kannada", "Kazakh",
		"Khmer", "Korean", "Lao", "Latvian", "Lithuanian", "Macedonian",
		"Malay", "Malayalam", "Maltese", "Marathi", "Mongolian", "Nepali",
		"Norwegian", "Pashto", "Persian", "Polish", "Portuguese", "Punjabi",
		"Romanian", "Russian", "Serbian", "Sinhala", "Slovak", "Slovenian",
		"Spanish", "Swahili", "Swedish", "Tamil", "Telugu", "Thai", "Turkish",
		"Ukrainian", "Urdu", "Uzbek", "Vietnamese", "Welsh", "Zulu"}
	regions := map[string][]string{
		"English": {"(United States)", "(United Kingdom)", "(Australia)",
			"(Canada)", "(India)", "(Ireland)", "(New Zealand)", "(South Africa)"},
		"French":     {"(France)", "(Canada)", "(Belgium)", "(Switzerland)"},
		"German":     {"(Germany)", "(Austria)", "(Switzerland)"},
		"Spanish":    {"(Spain)", "(Mexico)", "(Argentina)", "(Colombia)"},
		"Portuguese": {"(Brazil)", "(Portugal)"},
		"Chinese":    {"(Simplified)", "(Traditional)"},
	}
	var out []string
	for _, l := range base {
		if rs, ok := regions[l]; ok {
			for _, r := range rs {
				out = append(out, l+" "+r)
			}
			continue
		}
		out = append(out, l)
	}
	return out
})

// WordArtStyles is the Insert → WordArt gallery.
// The list is built once per process and shared by every caller, so it
// is read-only: galleries and combo boxes keep it to build their items
// when first opened.
func WordArtStyles() []string { return wordArtStyles() }

var wordArtStyles = sync.OnceValue(func() []string {
	fills := []string{"Black", "Blue", "Orange", "Gray", "Gold", "Green",
		"Purple", "Red"}
	effects := []string{"Fill", "Outline", "Fill with Shadow",
		"Fill with Reflection", "Fill with Glow"}
	var out []string
	for _, f := range fills {
		for _, e := range effects {
			out = append(out, e+", "+f)
		}
	}
	return out
})
