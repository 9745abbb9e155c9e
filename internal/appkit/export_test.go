package appkit

import "repro/internal/uia"

// Expandables exposes the registered ExpandCollapse controls to the
// external test package.
func (a *App) Expandables() []*uia.Element { return a.expandables }
