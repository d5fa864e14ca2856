package osmem

import (
	"fmt"
	"sort"
)

// Audit recounts the machine's page accounting from first principles
// and returns a description of every inconsistency found (empty when
// the books balance). It exists for the invariant checker: the
// incremental counters (Region.resident/swapped, Machine.physPages
// and swapPages, file refcounts, and each space's USS counter) are
// what every USS/RSS/PSS query reads, so a drift between them and the
// underlying page states — a double-free, a missed decrement, a stale
// refcount, a 1<->2 refcount crossing charged to the wrong space —
// would silently corrupt every experiment. Audit is O(total mapped
// pages); callers run it on a bounded cadence, not per event.
func (m *Machine) Audit() []string {
	var bad []string

	var physSum, swapSum int64
	fileRefs := make(map[*FileObject][]int32)

	for _, as := range m.AddressSpaces() {
		if got, want := as.USS(), as.Usage().USS; got != want {
			bad = append(bad, fmt.Sprintf(
				"space %s: USS counter %d bytes, rescan %d", as.label, got, want))
		}
		for _, r := range as.Regions() {
			var resident, swapped int64
			for i := int64(0); i < int64(len(r.pb)); i++ {
				switch r.pb[i] & pageStateMask {
				case pageResident:
					resident++
				case pageSwapped:
					swapped++
				case pageNotPresent:
					if r.pb[i]&pageDirty != 0 {
						bad = append(bad, fmt.Sprintf(
							"region %s/%s: page %d not present but dirty",
							as.label, r.Name, i))
					}
				default:
					bad = append(bad, fmt.Sprintf(
						"region %s/%s: page %d has invalid state byte %#x",
						as.label, r.Name, i, r.pb[i]))
				}
			}
			if resident != r.resident {
				bad = append(bad, fmt.Sprintf(
					"region %s/%s: resident counter %d, recount %d",
					as.label, r.Name, r.resident, resident))
			}
			if swapped != r.swapped {
				bad = append(bad, fmt.Sprintf(
					"region %s/%s: swapped counter %d, recount %d",
					as.label, r.Name, r.swapped, swapped))
			}
			physSum += resident
			swapSum += swapped
			if r.Kind == FileBacked {
				refs := fileRefs[r.file]
				if refs == nil {
					refs = make([]int32, r.file.Pages)
					fileRefs[r.file] = refs
				}
				for i := int64(0); i < int64(len(r.pb)); i++ {
					if r.pb[i]&pageStateMask == pageResident {
						refs[r.foff+i]++
					}
				}
			}
		}
	}

	if physSum != m.physPages {
		bad = append(bad, fmt.Sprintf(
			"machine: physPages %d, recount across spaces %d", m.physPages, physSum))
	}
	if swapSum != m.swapPages {
		bad = append(bad, fmt.Sprintf(
			"machine: swapPages %d, recount across spaces %d", m.swapPages, swapSum))
	}
	if m.swapLimit > 0 && m.swapPages > m.swapLimit {
		bad = append(bad, fmt.Sprintf(
			"machine: swap occupancy %d pages exceeds device limit %d", m.swapPages, m.swapLimit))
	}

	// File refcounts must equal the number of mappings holding each
	// page resident — they drive PSS/USS attribution and the §4.6
	// unmap-safety check.
	for _, name := range m.Files() {
		f := m.files[name]
		refs := fileRefs[f] // nil when no mapping has any page resident
		for i := int64(0); i < f.Pages; i++ {
			var want int32
			if refs != nil {
				want = refs[i]
			}
			if f.refs[i] != want {
				bad = append(bad, fmt.Sprintf(
					"file %s page %d: refcount %d, recount %d", name, i, f.refs[i], want))
			}
		}
	}

	sort.Strings(bad)
	return bad
}
