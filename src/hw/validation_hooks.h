// Thread-local attachment point for simulation validators.
//
// The validation layer (src/validate) wants to observe every simulated
// device a scenario constructs without the engines having to thread a
// validator pointer through every config struct. Devices announce their
// construction here; when no hooks are installed (the default) the check is
// a single null-pointer test per device *construction* — the per-event hot
// path is an untaken `observer_ == nullptr` branch, so golden outputs stay
// byte-identical with validation off.
//
// The registration is thread-local because the parallel scenario runner
// executes scenarios on a thread pool: each scenario's simulations are
// single-threaded, so a per-thread active validator is race-free and two
// concurrently running scenarios can be validated independently. (The
// search portfolio, the one multi-threaded scenario body, runs inline while
// hooks are installed.)

#ifndef OOBP_SRC_HW_VALIDATION_HOOKS_H_
#define OOBP_SRC_HW_VALIDATION_HOOKS_H_

namespace oobp {

class Gpu;
class Link;

// Implemented by the validation layer; devices built while hooks are active
// report themselves so the validator can attach per-event observers.
class HwValidationHooks {
 public:
  virtual ~HwValidationHooks() = default;
  virtual void OnGpuCreated(Gpu* gpu) = 0;
  virtual void OnLinkCreated(Link* link) = 0;
};

// The calling thread's active hooks; nullptr (the default) disables
// validation.
HwValidationHooks* ActiveHwValidationHooks();

// Installs `hooks` for this thread and returns the previous value so the
// caller can restore it (ValidationScope in src/validate does this
// RAII-style). Passing nullptr deactivates validation.
HwValidationHooks* SetHwValidationHooks(HwValidationHooks* hooks);

}  // namespace oobp

#endif  // OOBP_SRC_HW_VALIDATION_HOOKS_H_
