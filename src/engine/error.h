// Structured error taxonomy for the query lifecycle.
//
// Every failure an executor can surface — user cancellation, a deadline
// expiring, spool-file I/O, budget exhaustion, a plan the physical layer
// cannot run — is thrown as one engine::Error carrying a machine-readable
// code plus the context a service layer needs to log or retry sensibly:
// the saved errno, the temp-file path (for I/O faults) and the operator /
// call-site that raised it. The what() string folds all of it into one
// line, so callers that only know std::exception still get the full story.
//
// This header is deliberately dependency-free (standard library only): the
// nal layer throws engine::Error without the engine façade leaking back
// into it.
#ifndef NALQ_ENGINE_ERROR_H_
#define NALQ_ENGINE_ERROR_H_

#include <stdexcept>
#include <string>

namespace nalq::engine {

/// What failed, coarsely — the dispatch key for a caller's retry/abort
/// policy (src/nal/README.md, "Query lifecycle & failure semantics").
enum class ErrorCode {
  kCancelled,          ///< QueryControl::RequestCancel observed
  kDeadlineExceeded,   ///< the run outlived its monotonic deadline
  kSpoolIo,            ///< spool temp-file open/read/write/close/decode failed
  kBudgetExhausted,    ///< a resource limit (spool frame, worker thread) hit
  kPlanError,          ///< the physical layer cannot execute this plan shape
  kAdmissionRejected,  ///< the query service shed the submission (queue full
                       ///< or queue deadline) before it ever ran
  kStoreIo,            ///< persistent-store file open/read/write/rename failed
  kStoreCorrupt,       ///< persistent-store page/manifest failed validation
                       ///< (checksum, truncation, a malformed document)
  kStoreVersionMismatch,  ///< persisted format version this build can't read
};

/// Stable identifier string ("kCancelled", ...) for logs and tests.
const char* ErrorCodeName(ErrorCode code);

class Error : public std::runtime_error {
 public:
  /// `sys_errno` 0 means no OS error; `path` names the spool file for I/O
  /// faults; `context` is the raising site ("spool.write", "Sort", ...).
  Error(ErrorCode code, std::string message, int sys_errno = 0,
        std::string path = {}, std::string context = {});

  ErrorCode code() const noexcept { return code_; }
  int sys_errno() const noexcept { return sys_errno_; }
  const std::string& message() const noexcept { return message_; }
  const std::string& path() const noexcept { return path_; }
  const std::string& context() const noexcept { return context_; }
  const std::string& op() const noexcept { return op_; }

  const char* what() const noexcept override { return what_.c_str(); }

  /// Annotates a propagating error with the operator that was running when
  /// it surfaced ("Sort", "Join", ...) — the spill cursors call this while
  /// rethrowing, so a low-level "spool.write" fault also reports which
  /// breaker it broke. First annotation wins (the innermost operator).
  void set_op_if_empty(const std::string& op);

  /// Like set_op_if_empty for the raising-site context ("spool.write").
  void set_context_if_empty(const std::string& context);

 private:
  void RebuildWhat();

  ErrorCode code_;
  std::string message_;
  int sys_errno_;
  std::string path_;
  std::string context_;
  std::string op_;
  std::string what_;
};

}  // namespace nalq::engine

#endif  // NALQ_ENGINE_ERROR_H_
