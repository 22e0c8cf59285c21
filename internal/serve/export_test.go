package serve

import "credist"

// BasePlanner exposes a snapshot's shared scanned planner to the external
// tests, which check that read-only queries leave it untouched.
func BasePlanner(sn *Snapshot) *credist.Planner { return sn.be.(*engineBackend).Planner }
