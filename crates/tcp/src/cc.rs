//! Congestion control: NewReno-style AIMD and CUBIC (RFC 8312).
//!
//! The paper's Table 2 compares TCP Reno and TCP Cubic under HTTP and SPDY;
//! both are implemented here behind the [`CongestionControl`] trait. Window
//! arithmetic is in bytes, with the MSS as the increment quantum.

use serde::Serialize;
use spdyier_sim::{SimDuration, SimTime};

/// Which congestion control algorithm a connection runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum CcAlgorithm {
    /// NewReno-style AIMD (the kernel's `reno`).
    Reno,
    /// CUBIC (the Linux default since 2.6.19, and in the paper's testbed).
    Cubic,
}

impl CcAlgorithm {
    /// Instantiate the algorithm.
    pub fn build(self, mss: u64, initial_cwnd: u64) -> Box<dyn CongestionControl> {
        match self {
            CcAlgorithm::Reno => Box::new(Reno::new(mss, initial_cwnd)),
            CcAlgorithm::Cubic => Box::new(Cubic::new(mss, initial_cwnd)),
        }
    }
}

/// The sender-side congestion control interface.
pub trait CongestionControl: std::fmt::Debug + Send {
    /// Current congestion window, bytes.
    fn cwnd(&self) -> u64;
    /// Current slow-start threshold, bytes (`u64::MAX` when unset).
    fn ssthresh(&self) -> u64;
    /// Process a cumulative ACK of `acked` new bytes.
    fn on_ack(&mut self, now: SimTime, acked: u64, srtt: Option<SimDuration>);
    /// A loss event detected by duplicate ACKs (fast retransmit).
    fn on_loss_event(&mut self, now: SimTime);
    /// A retransmission timeout fired: collapse to one segment.
    fn on_rto(&mut self, now: SimTime);
    /// RFC 2861 idle restart: the window shrinks back to the initial
    /// window, but — crucially for the paper — `ssthresh` is preserved.
    fn on_idle_restart(&mut self, now: SimTime);
    /// Seed ssthresh from the host metrics cache (Linux `tcp_metrics`).
    fn set_ssthresh(&mut self, ssthresh: u64);
    /// Undo a spurious reduction (Linux's DSACK/Eifel undo): restore the
    /// window state captured just before the loss response.
    fn undo(&mut self, prior_cwnd: u64, prior_ssthresh: u64);
    /// Algorithm label for traces.
    fn name(&self) -> &'static str;
}

/// NewReno-style AIMD.
#[derive(Debug)]
pub struct Reno {
    mss: u64,
    initial_cwnd: u64,
    cwnd: u64,
    ssthresh: u64,
    /// Byte accumulator for congestion-avoidance growth.
    acked_accum: u64,
}

impl Reno {
    /// A fresh Reno instance with `initial_cwnd` bytes of window.
    pub fn new(mss: u64, initial_cwnd: u64) -> Reno {
        Reno {
            mss,
            initial_cwnd,
            cwnd: initial_cwnd,
            ssthresh: u64::MAX,
            acked_accum: 0,
        }
    }
}

impl CongestionControl for Reno {
    fn cwnd(&self) -> u64 {
        self.cwnd
    }

    fn ssthresh(&self) -> u64 {
        self.ssthresh
    }

    fn on_ack(&mut self, _now: SimTime, acked: u64, _srtt: Option<SimDuration>) {
        if self.cwnd < self.ssthresh {
            // Slow start with appropriate byte counting (L = 2 MSS).
            self.cwnd += acked.min(2 * self.mss);
        } else {
            // Congestion avoidance: one MSS per window's worth of ACKs.
            self.acked_accum += acked;
            if self.acked_accum >= self.cwnd {
                self.acked_accum -= self.cwnd;
                self.cwnd += self.mss;
            }
        }
    }

    fn on_loss_event(&mut self, _now: SimTime) {
        self.ssthresh = (self.cwnd / 2).max(2 * self.mss);
        self.cwnd = self.ssthresh;
        self.acked_accum = 0;
    }

    fn on_rto(&mut self, _now: SimTime) {
        self.ssthresh = (self.cwnd / 2).max(2 * self.mss);
        self.cwnd = self.mss;
        self.acked_accum = 0;
    }

    fn on_idle_restart(&mut self, _now: SimTime) {
        self.cwnd = self.cwnd.min(self.initial_cwnd);
        self.acked_accum = 0;
    }

    fn set_ssthresh(&mut self, ssthresh: u64) {
        self.ssthresh = ssthresh.max(2 * self.mss);
    }

    fn undo(&mut self, prior_cwnd: u64, prior_ssthresh: u64) {
        self.cwnd = self.cwnd.max(prior_cwnd);
        // Restore ssthresh halfway (the paper's Fig. 11/12 traces show the
        // threshold staying depressed after spurious episodes — the undo
        // machinery of the era did not fully recover it).
        self.ssthresh = self.ssthresh.max(prior_ssthresh / 2);
    }

    fn name(&self) -> &'static str {
        "reno"
    }
}

/// CUBIC per RFC 8312 (C = 0.4, β = 0.7, fast convergence on).
#[derive(Debug)]
pub struct Cubic {
    mss: u64,
    initial_cwnd: u64,
    /// Window in segments, kept fractional for smooth growth.
    cwnd_seg: f64,
    ssthresh: u64,
    /// Window size (segments) just before the last reduction.
    w_max: f64,
    /// Start of the current congestion-avoidance epoch.
    epoch_start: Option<SimTime>,
    /// Plateau origin for the cubic curve (segments).
    origin: f64,
    /// Time offset of the plateau, seconds.
    k: f64,
    /// Reno-friendly estimate (segments), RFC 8312 §4.2.
    w_est: f64,
}

const CUBIC_C: f64 = 0.4;
const CUBIC_BETA: f64 = 0.7;

impl Cubic {
    /// A fresh CUBIC instance with `initial_cwnd` bytes of window.
    pub fn new(mss: u64, initial_cwnd: u64) -> Cubic {
        Cubic {
            mss,
            initial_cwnd,
            cwnd_seg: initial_cwnd as f64 / mss as f64,
            ssthresh: u64::MAX,
            w_max: 0.0,
            epoch_start: None,
            origin: 0.0,
            k: 0.0,
            w_est: 0.0,
        }
    }

    fn begin_epoch(&mut self, now: SimTime) {
        self.epoch_start = Some(now);
        if self.cwnd_seg < self.w_max {
            self.k = ((self.w_max - self.cwnd_seg) / CUBIC_C).cbrt();
            self.origin = self.w_max;
        } else {
            self.k = 0.0;
            self.origin = self.cwnd_seg;
        }
        self.w_est = self.cwnd_seg;
    }
}

impl CongestionControl for Cubic {
    fn cwnd(&self) -> u64 {
        (self.cwnd_seg * self.mss as f64) as u64
    }

    fn ssthresh(&self) -> u64 {
        self.ssthresh
    }

    fn on_ack(&mut self, now: SimTime, acked: u64, srtt: Option<SimDuration>) {
        let acked_seg = acked as f64 / self.mss as f64;
        if self.cwnd() < self.ssthresh {
            // Slow start, byte-counted with L = 2 MSS.
            self.cwnd_seg += acked_seg.min(2.0);
            return;
        }
        if self.epoch_start.is_none() {
            self.begin_epoch(now);
        }
        let t = now
            .saturating_since(self.epoch_start.expect("set above"))
            .as_secs_f64();
        let target = self.origin + CUBIC_C * (t - self.k).powi(3);
        if target > self.cwnd_seg {
            // Approach the cubic target proportionally per ACK.
            self.cwnd_seg += ((target - self.cwnd_seg) / self.cwnd_seg) * acked_seg;
        } else {
            // Max probing: creep forward very slowly near the plateau.
            self.cwnd_seg += 0.01 * acked_seg / self.cwnd_seg;
        }
        // TCP-friendliness (RFC 8312 §4.2): never slower than AIMD-ish
        // Reno. Per-ACK form: t/RTT advances by 1/cwnd per acked segment,
        // so the elapsed-time term needs no explicit RTT.
        let _ = srtt;
        self.w_est += (3.0 * (1.0 - CUBIC_BETA) / (1.0 + CUBIC_BETA)) * acked_seg / self.cwnd_seg;
        if self.w_est > self.cwnd_seg {
            self.cwnd_seg = self.w_est;
        }
    }

    fn on_loss_event(&mut self, _now: SimTime) {
        // Fast convergence: release bandwidth when the window is shrinking.
        if self.cwnd_seg < self.w_max {
            self.w_max = self.cwnd_seg * (2.0 - CUBIC_BETA) / 2.0;
        } else {
            self.w_max = self.cwnd_seg;
        }
        self.cwnd_seg = (self.cwnd_seg * CUBIC_BETA).max(2.0);
        self.ssthresh = self.cwnd();
        self.epoch_start = None;
    }

    fn on_rto(&mut self, _now: SimTime) {
        self.w_max = self.cwnd_seg.max(self.w_max * CUBIC_BETA);
        self.ssthresh = ((self.cwnd_seg * CUBIC_BETA) * self.mss as f64) as u64;
        self.ssthresh = self.ssthresh.max(2 * self.mss);
        self.cwnd_seg = 1.0;
        self.epoch_start = None;
    }

    fn on_idle_restart(&mut self, _now: SimTime) {
        let initial_seg = self.initial_cwnd as f64 / self.mss as f64;
        if self.cwnd_seg > initial_seg {
            self.cwnd_seg = initial_seg;
        }
        self.epoch_start = None;
    }

    fn set_ssthresh(&mut self, ssthresh: u64) {
        self.ssthresh = ssthresh.max(2 * self.mss);
    }

    fn undo(&mut self, prior_cwnd: u64, prior_ssthresh: u64) {
        let prior_seg = prior_cwnd as f64 / self.mss as f64;
        if prior_seg > self.cwnd_seg {
            self.cwnd_seg = prior_seg;
        }
        // See `Reno::undo`: partial ssthresh recovery.
        self.ssthresh = self.ssthresh.max(prior_ssthresh / 2);
        self.w_max = self.w_max.max(prior_seg);
        self.epoch_start = None;
    }

    fn name(&self) -> &'static str {
        "cubic"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MSS: u64 = 1380;
    const IW: u64 = 10 * MSS;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn reno_slow_start_doubles_per_rtt() {
        let mut cc = Reno::new(MSS, IW);
        assert_eq!(cc.cwnd(), IW);
        // Ack a full window: slow start grows cwnd by the acked bytes.
        let mut acked = 0;
        while acked < IW {
            cc.on_ack(t(100), MSS, None);
            acked += MSS;
        }
        assert_eq!(cc.cwnd(), 2 * IW);
    }

    #[test]
    fn reno_congestion_avoidance_is_linear() {
        let mut cc = Reno::new(MSS, IW);
        cc.set_ssthresh(IW); // start in CA
        let before = cc.cwnd();
        // One window's worth of ACKs adds exactly one MSS.
        let mut acked = 0;
        while acked < before {
            cc.on_ack(t(0), MSS, None);
            acked += MSS;
        }
        assert_eq!(cc.cwnd(), before + MSS);
    }

    #[test]
    fn reno_loss_halves_window() {
        let mut cc = Reno::new(MSS, 20 * MSS);
        cc.on_loss_event(t(0));
        assert_eq!(cc.cwnd(), 10 * MSS);
        assert_eq!(cc.ssthresh(), 10 * MSS);
    }

    #[test]
    fn reno_rto_collapses_to_one_segment() {
        let mut cc = Reno::new(MSS, 20 * MSS);
        cc.on_rto(t(0));
        assert_eq!(cc.cwnd(), MSS);
        assert_eq!(cc.ssthresh(), 10 * MSS, "ssthresh set from the old cwnd");
    }

    #[test]
    fn reno_floor_at_two_mss() {
        let mut cc = Reno::new(MSS, MSS);
        cc.on_loss_event(t(0));
        assert_eq!(cc.ssthresh(), 2 * MSS);
    }

    #[test]
    fn idle_restart_preserves_ssthresh() {
        // The flaw the paper dissects: cwnd resets, ssthresh does not.
        let mut cc = Reno::new(MSS, IW);
        for _ in 0..200 {
            cc.on_ack(t(0), MSS, None);
        }
        let grown = cc.cwnd();
        assert!(grown > IW);
        cc.set_ssthresh(50 * MSS);
        cc.on_idle_restart(t(0));
        assert_eq!(cc.cwnd(), IW, "cwnd back to the initial window");
        assert_eq!(cc.ssthresh(), 50 * MSS, "ssthresh untouched");
    }

    #[test]
    fn idle_restart_never_grows_cwnd() {
        let mut cc = Reno::new(MSS, IW);
        cc.on_rto(t(0)); // cwnd = 1 MSS
        cc.on_idle_restart(t(0));
        assert_eq!(cc.cwnd(), MSS, "idle restart only shrinks");
    }

    #[test]
    fn cubic_slow_start_then_cubic_growth() {
        let mut cc = Cubic::new(MSS, IW);
        assert_eq!(cc.name(), "cubic");
        // Grow in slow start to ssthresh.
        cc.set_ssthresh(20 * MSS);
        let mut now = t(0);
        while cc.cwnd() < 20 * MSS {
            cc.on_ack(now, MSS, Some(SimDuration::from_millis(100)));
            now += SimDuration::from_millis(10);
        }
        let at_ca_entry = cc.cwnd();
        // In CA the window keeps growing with time.
        for i in 0..500u64 {
            cc.on_ack(
                now + SimDuration::from_millis(i * 20),
                MSS,
                Some(SimDuration::from_millis(100)),
            );
        }
        assert!(cc.cwnd() > at_ca_entry, "cubic grows in CA");
    }

    #[test]
    fn cubic_loss_multiplies_by_beta() {
        let mut cc = Cubic::new(MSS, 100 * MSS);
        cc.on_loss_event(t(0));
        let got = cc.cwnd() as f64 / MSS as f64;
        assert!((got - 70.0).abs() < 1.0, "β = 0.7, got {got}");
        assert_eq!(cc.ssthresh(), cc.cwnd());
    }

    #[test]
    fn cubic_rto_collapses_and_remembers_w_max() {
        let mut cc = Cubic::new(MSS, 100 * MSS);
        cc.on_rto(t(0));
        assert_eq!(cc.cwnd(), MSS);
        assert!(cc.ssthresh() <= 70 * MSS + MSS);
        assert!(cc.ssthresh() >= 2 * MSS);
    }

    #[test]
    fn cubic_concave_approach_to_w_max() {
        // After a reduction, growth is fast then flattens near w_max.
        let mut cc = Cubic::new(MSS, 100 * MSS);
        cc.on_loss_event(t(0)); // w_max = 100, cwnd = 70, ssthresh = cwnd
        let mut now = t(0);
        let mut prev = cc.cwnd();
        let mut deltas = Vec::new();
        for _ in 0..40 {
            // One RTT's worth of acks.
            for _ in 0..(cc.cwnd() / MSS).max(1) {
                cc.on_ack(now, MSS, Some(SimDuration::from_millis(100)));
            }
            now += SimDuration::from_millis(100);
            deltas.push(cc.cwnd() as i64 - prev as i64);
            prev = cc.cwnd();
        }
        // Growth rate must shrink while approaching the plateau.
        let early: i64 = deltas[..5].iter().sum();
        let mid_idx = deltas
            .iter()
            .scan(70 * MSS as i64, |w, d| {
                *w += d;
                Some(*w)
            })
            .position(|w| w as u64 >= 97 * MSS)
            .unwrap_or(20)
            .min(35);
        let late: i64 = deltas[mid_idx..mid_idx + 5].iter().sum();
        assert!(early > late, "concave region: early {early} late {late}");
    }

    #[test]
    fn cubic_fast_convergence_lowers_w_max() {
        let mut cc = Cubic::new(MSS, 100 * MSS);
        cc.on_loss_event(t(0)); // w_max = 100
        cc.on_loss_event(t(10)); // cwnd (70) < w_max (100) → w_max = 70*(2-β)/2 = 45.5
        assert!(cc.w_max < 50.0, "fast convergence, w_max {}", cc.w_max);
    }

    #[test]
    fn builder_dispatches() {
        assert_eq!(CcAlgorithm::Reno.build(MSS, IW).name(), "reno");
        assert_eq!(CcAlgorithm::Cubic.build(MSS, IW).name(), "cubic");
    }
}
