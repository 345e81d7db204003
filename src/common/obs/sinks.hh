/**
 * @file
 * The observability sinks of one simulation, as one value: pointers
 * to the event tracer, metrics registry, per-message causal log,
 * windowed timeline recorder and engine self-profiler, each null when
 * that sink is off.  The simulator resolves the bundle once per run
 * (see sim::runExperiment) and hands the same value to every
 * component, each of which records into whatever members are set.
 */

#ifndef HSIPC_COMMON_OBS_SINKS_HH
#define HSIPC_COMMON_OBS_SINKS_HH

namespace hsipc::trace { class Tracer; class CausalLog; }
namespace hsipc::metrics { class Registry; }

namespace hsipc::obs
{

class TimelineRecorder;
class EngineProfiler;

/** Pointers to the sinks a run records into; null = off. */
struct Sinks
{
    trace::Tracer *tracer = nullptr;
    metrics::Registry *metrics = nullptr;
    trace::CausalLog *causal = nullptr;
    TimelineRecorder *timeline = nullptr;
    EngineProfiler *profiler = nullptr;
};

} // namespace hsipc::obs

#endif // HSIPC_COMMON_OBS_SINKS_HH
