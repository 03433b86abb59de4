// Umbrella header: every public piece of the q-MAX library.
//
// Individual headers stay the preferred include (they compile faster and
// document dependencies); this one exists for exploratory use and the
// examples.
#pragma once

// Core reservoirs (the paper's contribution).
#include "qmax/amortized_qmax.hpp"   // O(1) amortized variant
#include "qmax/batch.hpp"            // batched-ingestion helpers
#include "qmax/concepts.hpp"         // the Reservoir concept
#include "qmax/concurrent.hpp"       // lock-free multi-writer reservoir
#include "qmax/core.hpp"             // policy-based ReservoirCore engine
#include "qmax/entry.hpp"            // item types
#include "qmax/exp_decay.hpp"        // Section 5: exponential decay
#include "qmax/invariants.hpp"       // white-box invariant audits
#include "qmax/qmax.hpp"             // Algorithm 1: deamortized q-MAX
#include "qmax/qmin.hpp"             // minimum-oriented adapter
#include "qmax/sampled_qmax.hpp"     // sampled-pivot maintenance variant
#include "qmax/sharded.hpp"          // sharded reservoirs + global-Ψ broadcast
#include "qmax/sliding.hpp"          // Algorithms 3/4 + Theorem 7 windows
#include "qmax/small_domain_window.hpp"  // §4.3.2 small-domain variant
#include "qmax/time_sliding.hpp"     // Section 4.3.4: time-based windows

// Baseline reservoirs (the paper's comparison points).
#include "baselines/heap_qmax.hpp"
#include "baselines/skiplist_qmax.hpp"
#include "baselines/sorted_qmax.hpp"

// Measurement applications (Section 2).
#include "apps/bottomk.hpp"
#include "apps/count_distinct.hpp"
#include "apps/dbm.hpp"
#include "apps/nwhh.hpp"
#include "apps/pba.hpp"
#include "apps/priority_sampling.hpp"
#include "apps/univmon.hpp"

// LRFU caches (Section 5.1).
#include "cache/lrfu_exact.hpp"
#include "cache/lrfu_qmax.hpp"
#include "cache/lrfu_qmax_deamortized.hpp"

// Virtual switch substrate (Section 6.6).
#include "vswitch/flow_table.hpp"
#include "vswitch/multi_pmd.hpp"
#include "vswitch/ring_buffer.hpp"
#include "vswitch/vswitch.hpp"

// Traces.
#include "trace/packet.hpp"
#include "trace/synthetic.hpp"
#include "trace/trace_io.hpp"

// Robustness: fault injection (armed only by tests) and argument validation.
#include "common/fault.hpp"
#include "common/validate.hpp"
