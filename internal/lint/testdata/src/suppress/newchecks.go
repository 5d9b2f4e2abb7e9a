// Directive hygiene for the v2 check names: the suppression grammar
// must accept poolsafety/hotalloc (so unused directives are
// findings, not silent no-ops) and reject misspellings.
package suppress

import "time"

func unusedNewCheckIgnore() {
	//lint:ignore hotalloc stale suppression naming a v2 check
	time.Sleep(1) // want "wall-clock time.Sleep" want:-1 "unused lint:ignore"
}

func typoedNewCheck() {
	//lint:ignore poolsafty misspelled check name
	time.Sleep(1) // want "wall-clock time.Sleep" want:-1 "unknown check"
}

func newCheckMissingReason() {
	//lint:ignore poolsafety
	time.Sleep(1) // want "wall-clock time.Sleep" want:-1 "has no reason"
}
