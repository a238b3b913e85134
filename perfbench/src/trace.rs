//! Spans recorded by the benchmark around its calls into each layer.
//!
//! The untraced run holds a disabled recorder, so every call here is one
//! branch. The traced run keeps spans in memory and writes a single
//! Chrome trace when it ends.

use ditto_obs::span::Attr;
use ditto_obs::{ChromeTraceStats, Recorder, SpanId, Track};
use std::path::Path;

/// Track group of the benchmark client (job spans and their children).
const CLIENT_GROUP: u32 = 3;
/// Track group of set-up spans.
const SETUP_GROUP: u32 = 4;
/// Spans written to the Chrome trace, counted from the first. The schema
/// validator's cost grows faster than linearly with the event count, so
/// the trace keeps the set-up and the first traced jobs; spans past the
/// cap are still recorded (the overhead is the same) but not written.
pub const SPAN_CAP: usize = 6000;

/// The client track: lane 0 holds job spans, lane 1 their layer calls.
pub fn client(lane: u32) -> Track {
    Track {
        group: CLIENT_GROUP,
        lane,
    }
}

/// The set-up track.
pub fn setup() -> Track {
    Track {
        group: SETUP_GROUP,
        lane: 0,
    }
}

/// A recorder that is either off (untraced run) or keeping spans.
pub struct Tracer {
    rec: Recorder,
}

impl Tracer {
    /// Record nothing.
    pub fn off() -> Self {
        Tracer {
            rec: Recorder::disabled(),
        }
    }

    /// Keep every span in memory.
    pub fn on() -> Self {
        let rec = Recorder::new();
        rec.name_track(CLIENT_GROUP, "benchmark client");
        rec.name_track(SETUP_GROUP, "set-up");
        Tracer { rec }
    }

    /// Whether spans are kept.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.rec.is_enabled()
    }

    /// Seconds on the trace clock.
    pub fn now(&self) -> f64 {
        self.rec.wall_now()
    }

    /// Open a span now.
    pub fn begin(
        &self,
        name: &'static str,
        track: Track,
        parent: SpanId,
        attrs: Vec<Attr>,
    ) -> SpanId {
        if !self.enabled() {
            return SpanId::NONE;
        }
        self.rec
            .begin(name, track, self.rec.wall_now(), parent, attrs)
    }

    /// Close a span now.
    pub fn end(&self, id: SpanId) {
        if self.enabled() {
            self.rec.end(id, self.rec.wall_now());
        }
    }

    /// Record an already finished span, unless the trace is past
    /// [`SPAN_CAP`] (such detail would not be written).
    pub fn span(
        &self,
        name: &'static str,
        track: Track,
        start: f64,
        end: f64,
        parent: SpanId,
        attrs: Vec<Attr>,
    ) {
        if self.enabled() && self.rec.span_count() < SPAN_CAP {
            self.rec
                .span_with_parent(name, track, start, end, parent, attrs);
        }
    }

    /// Run `f` inside a span.
    pub fn scope<T>(
        &self,
        name: &'static str,
        track: Track,
        parent: SpanId,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, track, parent, Vec::new());
        let out = f();
        self.end(id);
        out
    }

    /// Export the first [`SPAN_CAP`] spans as a Chrome trace, check it
    /// against the `ditto-obs` schema validator and write it to `path`.
    /// Returns the validator's summary and the number of spans recorded.
    pub fn write_chrome(&self, path: &Path) -> Result<(ChromeTraceStats, usize), String> {
        let mut data = self.rec.finish();
        let recorded = data.spans.len();
        // Ids follow creation order and parents open before children, so
        // a prefix keeps every parent link intact.
        data.spans.truncate(SPAN_CAP);
        let json = ditto_obs::to_chrome_trace(&data);
        let stats = ditto_obs::validate_chrome_trace(&json)?;
        std::fs::write(path, json).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok((stats, recorded))
    }
}
