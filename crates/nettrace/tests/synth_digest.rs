//! Bit pins on trace synthesis: an FNV-1a digest of every packet
//! (time bits, size, flow index), every flow key and the duration that
//! `TraceSynthesizer::synthesize` returns, over shapes that stress its
//! ordering — a sparse preset, a trace shorter than one arrival step,
//! two hosts, a dense trace full of equal-time neighbours, and the
//! perfbench roll-up link shape. Any change to the RNG order, the
//! packet arithmetic, the time sort or the flow-table remap moves them.

use sst_nettrace::{PacketTrace, Protocol, TraceSynthesizer};

/// 64-bit FNV-1a, folded over `bytes`.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn digest(trace: &PacketTrace) -> u64 {
    let mut h = fnv1a(
        0xcbf2_9ce4_8422_2325,
        &trace.duration().to_bits().to_le_bytes(),
    );
    for p in trace.packets() {
        h = fnv1a(h, &p.time.to_bits().to_le_bytes());
        h = fnv1a(h, &p.size.to_le_bytes());
        h = fnv1a(h, &p.flow.to_le_bytes());
    }
    for f in trace.flows() {
        h = fnv1a(h, &f.src.to_le_bytes());
        h = fnv1a(h, &f.dst.to_le_bytes());
        h = fnv1a(h, &f.src_port.to_le_bytes());
        h = fnv1a(h, &f.dst_port.to_le_bytes());
        h = fnv1a(h, &[u8::from(f.proto == Protocol::Udp)]);
    }
    h
}

/// `(name, synthesizer, seed, packets, flows, digest)`.
fn pins() -> Vec<(&'static str, TraceSynthesizer, u64, usize, usize, u64)> {
    let preset = TraceSynthesizer::bell_labs_like;
    vec![
        (
            "roll-up link",
            preset().hosts(600).mean_rate(1.0e6).duration(60.0),
            101,
            119_721,
            2_059,
            0x3856_4b2a_49c7_744a,
        ),
        (
            "600 s preset",
            preset().duration(600.0),
            11,
            13_320,
            230,
            0x3461_cb03_ad64_f29f,
        ),
        (
            "0.05 s",
            preset().mean_rate(2.0e6).duration(0.05),
            7,
            127,
            20,
            0x620d_26fe_1be2_3fdf,
        ),
        (
            "2 hosts",
            preset().hosts(2).mean_rate(1.0e5).duration(30.0),
            3,
            6_019,
            119,
            0x0d51_1cfe_2bea_4811,
        ),
        (
            "dense 50 hosts",
            preset().hosts(50).mean_rate(2.0e7).duration(4.0),
            4242,
            194_462,
            3_097,
            0x0c24_7d88_ab94_9636,
        ),
    ]
}

#[test]
fn synthesized_traces_match_pinned_digests() {
    for (name, synth, seed, packets, flows, pin) in pins() {
        let trace = synth.synthesize(seed);
        assert_eq!(
            (trace.len(), trace.flows().len(), digest(&trace)),
            (packets, flows, pin),
            "{name}, seed {seed}"
        );
    }
}
