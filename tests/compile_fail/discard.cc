// Control TU for the must-check compile-fail tests: each call returns a
// [[nodiscard]] result and drops it through the `(void)` escape hatch, which
// compiles. Each compile-fail test strips one `(void)` from a copy of this
// file and must fail under manic_warnings' -Werror=unused-result.
#include <span>
#include <string>

#include "runtime/framed_log.h"
#include "serve/sample.h"
#include "serve/service.h"
#include "serve/session.h"

namespace manic {

void DiscardExplicitly(serve::CongestionService& service,
                       std::span<const serve::Sample> batch,
                       runtime::FramedLogWriter& log, serve::Session& session,
                       std::string* out) {
  (void)service.SubmitBatch(batch);
  (void)log.Append("record");
  (void)session.Consume("bytes", out);
}

}  // namespace manic
