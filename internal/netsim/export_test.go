package netsim

// PortMaxBytes returns the worst occupancy tr saw at port id in the
// current window, for the external tests that compare it across plane
// compositions.
func PortMaxBytes(tr *PortWindowTracker, id int) int64 { return tr.maxBytes[id] }
