// Package fixture exercises the suppression audit: loaded as
// econcast/internal/sim it carries live directives (the wallclock
// suppressions really are holding back findings), one stale directive
// (nothing on the covered lines trips floateq), and one live directive
// that gives no reason, so the audit must report exactly the stale one
// and the unjustified one.
package fixture

import "time"

//lint:allow wallclock fixture: pretend-sanctioned clock read
var bootTime = time.Now()

//lint:allow floateq stale: nothing here compares floats
var nodeCount = 3

func uptime() time.Duration { return time.Since(bootTime) } //lint:allow wallclock fixture: trailing live directive

// tied's directive suppresses a real floateq finding but says nothing
// about why the exact comparison is acceptable.
func tied(a, b float64) bool { return a == b } //lint:allow floateq
