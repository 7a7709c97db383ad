// Control TU for the wire-pin compile-fail tests: it includes every header
// that pins a wire struct's field count, offsets, widths and (where it has
// one) its exact sizeof, so it compiles exactly when every pin holds. Each
// wire test compiles it again against one mutated copy of one of these
// headers.
#include "runtime/framed_log.h"
#include "serve/codec.h"
#include "serve/sample.h"
#include "serve/verdict.h"
