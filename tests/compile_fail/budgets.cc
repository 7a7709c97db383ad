// Control TU for the byte-budget compile-fail tests: it includes every
// header that carries a standalone sizeof budget, so it compiles exactly
// when every budget static_assert in them holds. Each budget test compiles
// it again against one mutated copy of one of these headers. The wire-pinned
// structs fix their exact sizeof inside their pins (see wire.cc).
#include "serve/ingest.h"
#include "stats/timeseries.h"
#include "topo/topology.h"
