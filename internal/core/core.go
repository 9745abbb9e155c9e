// Package core implements the Declarative Model Interface (DMI) runtime —
// the paper's primary contribution. It exposes the three declarative
// primitives to the LLM:
//
//   - access declaration: the visit interface (§3.4) takes structured
//     commands that name target controls by topology id; the executor
//     deterministically navigates from any current UI state to each target
//     and performs the primitive interaction.
//   - state declaration: Session.Declare (§3.5, Table 2) drives controls to
//     a declared end state, hiding compound interactions. A Declaration
//     names one op of one table — scrollbar, select_lines,
//     select_paragraphs, select_controls, set_range_value,
//     set_toggle_state, set_expanded — each built on one UIA pattern.
//   - observation declaration: get_texts (§3.5) retrieves structured
//     content, passively before every LLM call and actively on demand.
//
// Robustness (§3.4): non-leaf filtering of imperfect LLM output, fuzzy
// control matching, failure retries for slowly-loading controls, a window
// closing policy of OK > Close > Cancel, and structured error feedback.
package core
