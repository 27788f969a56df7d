#include "sim/engine.hh"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/logging.hh"
#include "trace/trace.hh"

namespace incam {
namespace sim {

SimEngine::SimEngine(NetworkLink link, Options options)
    : opts(options),
      link(std::move(link),
           SimLink::Options{options.policy, options.trace})
{
}

int
SimEngine::addCamera(StreamingPipeline *pipeline, std::string name,
                     double weight)
{
    incam_assert(!ran, "a SimEngine instance is single-use");
    incam_assert(pipeline != nullptr, "null pipeline");
    const int endpoint = link.addEndpoint(std::move(name), weight);
    Cam cam;
    cam.sp = pipeline;
    cam.index = endpoint;
    cams.push_back(std::move(cam));
    return endpoint;
}

VirtualClock *
SimEngine::cameraClock(int camera)
{
    incam_assert(camera >= 0 &&
                     static_cast<size_t>(camera) < cams.size(),
                 "unknown camera ", camera);
    return &cams[static_cast<size_t>(camera)].clock;
}

void
SimEngine::run()
{
    incam_assert(!ran, "a SimEngine instance is single-use");
    ran = true;
    incam_assert(!cams.empty(), "an engine needs at least one camera");

    for (Cam &cam : cams) {
        try {
            cam.sp->beginEventRun();
            scheduleSource(cam);
        } catch (...) {
            failCamera(cam, std::current_exception());
        }
    }

    while (!sched.empty()) {
        const Event ev = sched.pop();
        ++n_events;
        model_end = std::max(model_end, ev.t);
        switch (ev.kind) {
          case kDeparture: {
            if (ev.payload != link.version()) {
                break; // superseded by a later submit/departure
            }
            link.advanceTo(ev.t);
            resolveCompleted();
            scheduleDeparture();
            break;
          }
          case kSource:
            sourceStep(cams[static_cast<size_t>(ev.camera)], ev.t);
            break;
          case kTx:
            startAttempt(cams[static_cast<size_t>(ev.camera)], ev.t);
            break;
          default:
            incam_panic("unknown event kind ", ev.kind);
        }
    }

    for (Cam &cam : cams) {
        model_end = std::max(model_end, cam.clock.now());
    }
    if (first_error) {
        std::rethrow_exception(first_error);
    }
}

void
SimEngine::sourceStep(Cam &cam, double t)
{
    if (cam.done) {
        return;
    }
    cam.clock.advanceTo(t);
    try {
        const StreamingPipeline::SourceStep step =
            cam.sp->nextFrame(cam.frame);
        if (step == StreamingPipeline::SourceStep::Done) {
            finishCamera(cam);
            return;
        }
        if (step == StreamingPipeline::SourceStep::Skipped) {
            scheduleSource(cam);
            return;
        }
        cam.plan = cam.sp->planDelivery(cam.frame);
        cam.out = StreamingPipeline::TxOutcome{};
        if (!cam.plan.attempt_remote) {
            // Local-delivery epoch: nothing crosses the medium.
            cam.sp->finishDelivery(cam.frame, cam.plan, cam.out);
            scheduleSource(cam);
            return;
        }
        if (!opts.pace_link) {
            countingDelivery(cam);
            scheduleSource(cam);
            return;
        }
        // Paced: the first attempt starts at the camera's own now (its
        // stages already advanced its clock past this event's time).
        sched.schedule(cam.clock.now(), cam.index, kTx);
    } catch (...) {
        failCamera(cam, std::current_exception());
    }
}

void
SimEngine::countingDelivery(Cam &cam)
{
    // The counting branch of StreamingPipeline::deliverFrame, step for
    // step: every attempt is priced and granted, losses come from the
    // interleaving-independent hash draw, backoff is accounted but
    // never slept — which is what makes counting-mode discrete-event
    // runs bit-identical to the threaded runtime.
    for (;;) {
        ++cam.out.attempts;
        cam.sp->obsTxAttempt(cam.frame, cam.out.attempts);
        const Energy e =
            link.price(cam.frame.bytes.b(), cam.frame.trace_time);
        link.countGrant(cam.index, cam.frame.bytes.b());
        cam.out.energy += e;
        cam.sp->obsTxGrant(cam.frame, cam.out.attempts, e);
        if (cam.out.attempts > 1) {
            cam.out.retry_bytes += cam.frame.bytes;
            cam.out.retry_energy += e;
        }
        if (!cam.sp->txAttemptLost(cam.frame, cam.out.attempts)) {
            cam.out.remote_ok = true;
            break;
        }
        cam.sp->obsTxLoss(cam.frame, cam.out.attempts);
        if (cam.out.attempts >= cam.plan.budget) {
            break;
        }
        const double wait =
            cam.sp->txBackoffWait(cam.frame, cam.out.attempts);
        cam.out.backoff_seconds += wait;
        cam.sp->obsTxBackoff(cam.frame, cam.out.attempts, wait);
    }
    cam.sp->finishDelivery(cam.frame, cam.plan, cam.out);
}

void
SimEngine::startAttempt(Cam &cam, double t)
{
    if (cam.done) {
        return;
    }
    cam.clock.advanceTo(t);
    ++cam.out.attempts;
    cam.sp->obsTxAttempt(cam.frame, cam.out.attempts);
    link.submit(cam.index, cam.frame.bytes.b(), t);
    // Settling history can pop another endpoint's departure due at
    // this very instant; the submit also stales that departure's
    // queued event, so resolve it now or nothing ever will on time.
    resolveCompleted();
    scheduleDeparture();
}

void
SimEngine::resolveCompleted()
{
    for (const SimLink::Completion &c : link.takeCompleted()) {
        resolveAttempt(cams[static_cast<size_t>(c.endpoint)], c.depart_t,
                       c.energy);
    }
}

void
SimEngine::resolveAttempt(Cam &cam, double t, Energy energy)
{
    if (cam.done) {
        return; // failed while its last attempt was in flight
    }
    cam.clock.advanceTo(t);
    cam.out.energy += energy;
    cam.sp->obsTxGrant(cam.frame, cam.out.attempts, energy);
    if (cam.out.attempts > 1) {
        cam.out.retry_bytes += cam.frame.bytes;
        cam.out.retry_energy += energy;
    }
    try {
        if (!cam.sp->txAttemptLost(cam.frame, cam.out.attempts)) {
            cam.out.remote_ok = true;
            cam.sp->finishDelivery(cam.frame, cam.plan, cam.out);
            scheduleSource(cam);
            return;
        }
        cam.sp->obsTxLoss(cam.frame, cam.out.attempts);
        if (cam.out.attempts >= cam.plan.budget) {
            cam.sp->finishDelivery(cam.frame, cam.plan, cam.out);
            scheduleSource(cam);
            return;
        }
        // Lost with budget left: sit out the jittered backoff on
        // model time, then submit the next attempt.
        const double wait =
            cam.sp->txBackoffWait(cam.frame, cam.out.attempts);
        cam.out.backoff_seconds += wait;
        cam.sp->obsTxBackoff(cam.frame, cam.out.attempts, wait);
        sched.schedule(t + wait, cam.index, kTx);
    } catch (...) {
        failCamera(cam, std::current_exception());
    }
}

void
SimEngine::scheduleSource(Cam &cam)
{
    double next = cam.clock.now();
    const RuntimeOptions &ro = cam.sp->runtimeOptions();
    if (!ro.pace_stages && !ro.pace_link && opts.trace_fps > 0.0) {
        // Fully counting run: nothing advances the camera's clock, so
        // the frame clock sequences cameras — frame n of every camera
        // happens at n / trace_fps, cameras interleaving by index.
        next = std::max(
            next, static_cast<double>(cam.sp->nextSourceId()) /
                      opts.trace_fps);
    }
    sched.schedule(next, cam.index, kSource);
}

void
SimEngine::scheduleDeparture()
{
    const double t = link.nextDepartureTime();
    if (t != std::numeric_limits<double>::infinity()) {
        sched.schedule(t, -1, kDeparture, link.version());
    }
}

void
SimEngine::finishCamera(Cam &cam)
{
    cam.done = true;
    link.release(cam.index);
}

void
SimEngine::failCamera(Cam &cam, std::exception_ptr error)
{
    cam.done = true;
    link.release(cam.index);
    if (!first_error) {
        first_error = std::move(error);
    }
}

} // namespace sim
} // namespace incam
