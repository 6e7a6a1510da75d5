//! Property-based tests for the NF library's core data structures.

use std::collections::HashSet;
use std::net::SocketAddrV4;

use proptest::prelude::*;
use speedybox_mat::OpCounter;
use speedybox_nf::inspect::Match;
use speedybox_nf::maglev::Maglev;
use speedybox_nf::mazunat::MazuNat;
use speedybox_nf::snort::{ContentSpec, LogEntry, PortSpec, Rule, RuleAction, SnortLite};
use speedybox_nf::{AhoCorasick, Nf, NfContext, Regex};
use speedybox_packet::{HeaderField, Packet, PacketBuilder, Protocol};

fn backends(n: usize) -> Vec<(String, SocketAddrV4)> {
    (0..n)
        .map(|i| {
            (
                format!("backend-{i}"),
                format!("10.1.{}.{}:8080", i / 250, (i % 250) + 1).parse().unwrap(),
            )
        })
        .collect()
}

/// Primes for the Maglev table size, as the Maglev paper requires.
const PRIMES: [usize; 5] = [53, 101, 211, 251, 509];

/// Every occurrence of every pattern, by end offset and then pattern index.
fn naive_matches(patterns: &[Vec<u8>], haystack: &[u8]) -> Vec<Match> {
    let mut out = Vec::new();
    for end in 1..=haystack.len() {
        for (pattern, p) in patterns.iter().enumerate() {
            if !p.is_empty() && end >= p.len() && haystack[end - p.len()..end] == p[..] {
                out.push(Match { pattern, end });
            }
        }
    }
    out
}

/// Checks `find_all`, `find_first` and `matching_patterns` against naive
/// enumeration.
fn check_against_naive(patterns: &[Vec<u8>], haystack: &[u8]) {
    let ac = AhoCorasick::new(patterns);
    let got = ac.find_all(haystack);
    prop_assert!(got.windows(2).all(|w| w[0].end <= w[1].end), "not in end order: {:?}", got);
    prop_assert_eq!(ac.find_first(haystack), got.first().copied());
    let mut sorted = got;
    sorted.sort_by_key(|m| (m.end, m.pattern));
    let want = naive_matches(patterns, haystack);
    prop_assert_eq!(&sorted, &want);
    let mut want_set: Vec<usize> = want.iter().map(|m| m.pattern).collect();
    want_set.sort_unstable();
    want_set.dedup();
    prop_assert_eq!(ac.matching_patterns(haystack), want_set);
}

/// Bytes over a small alphabet, so patterns overlap, share prefixes and
/// suffixes, and actually occur.
fn small(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(prop::sample::select(b"abc".to_vec()), len)
}

/// Patterns over `abc`, plus a duplicate, a prefix and a suffix of them.
fn small_patterns() -> impl Strategy<Value = Vec<Vec<u8>>> {
    prop::collection::vec(small(1..6), 1..8).prop_map(|mut ps| {
        let first = ps[0].clone();
        let last = ps[ps.len() - 1].clone();
        ps.push(first.clone());
        ps.push(first[..first.len().div_ceil(2)].to_vec());
        ps.push(last[last.len() / 2..].to_vec());
        ps
    })
}

/// Alphabet of the Snort differential: case matters to `nocase`.
const SNORT_ALPHABET: &[u8] = b"abcAB";

/// One content spec over [`SNORT_ALPHABET`], with random modifiers.
fn content_spec() -> impl Strategy<Value = ContentSpec> {
    (
        prop::collection::vec(prop::sample::select(SNORT_ALPHABET.to_vec()), 1..4),
        prop::bool::ANY,
        prop_oneof![Just(0usize), 1usize..6],
        prop_oneof![Just(None), (1usize..12).prop_map(Some)],
    )
        .prop_map(|(pattern, nocase, offset, depth)| ContentSpec {
            pattern,
            nocase,
            offset,
            depth,
        })
}

/// A rule with header constraints, 0–3 contents and at most one pcre
/// (at least one of the two).
fn snort_rule() -> impl Strategy<Value = Rule> {
    const PCRES: [&str; 5] = ["/a+b/", "/^ab/", "/c[aB]c/", "/B$/", "/(ab|ba)c/"];
    (
        prop::sample::select(vec![RuleAction::Pass, RuleAction::Alert, RuleAction::Log]),
        prop::sample::select(vec![PortSpec::Any, PortSpec::Port(80), PortSpec::Port(8080)]),
        prop::collection::vec(content_spec(), 0..4),
        prop_oneof![Just(None::<&str>), prop::sample::select(PCRES.to_vec()).prop_map(Some)],
    )
        .prop_map(|(action, dst_port, mut contents, pcre): (_, _, _, Option<&str>)| {
            if contents.is_empty() && pcre.is_none() {
                contents.push(ContentSpec::plain(b"ab"));
            }
            Rule {
                action,
                protocol: Protocol::Tcp,
                src_port: PortSpec::Any,
                dst_port,
                contents,
                pcres: pcre.map(|p| Regex::new(p).unwrap()).into_iter().collect(),
                msg: String::new(),
            }
        })
}

proptest! {
    /// The Maglev lookup table is always fully populated and near-balanced
    /// ("almost-equal share" is Maglev's core guarantee).
    #[test]
    fn maglev_table_balanced(
        n_backends in 1usize..12,
        prime_idx in 0usize..PRIMES.len(),
    ) {
        let m = PRIMES[prime_idx];
        prop_assume!(m > n_backends * 4);
        let lb = Maglev::new(backends(n_backends), m);
        let shares = lb.table_shares();
        prop_assert_eq!(shares.len(), n_backends);
        let total: usize = shares.values().sum();
        prop_assert_eq!(total, m);
        let min = *shares.values().min().unwrap();
        let max = *shares.values().max().unwrap();
        // Maglev's populate guarantees a spread of at most ~1 slot per
        // round; allow 2 for rounding.
        prop_assert!(max - min <= 2, "spread {min}..{max} over {m} slots");
    }

    /// Failing one backend disrupts only slots that pointed at it (the
    /// consistent-hashing minimal-disruption property, within tolerance).
    #[test]
    fn maglev_failure_disruption_bounded(
        n_backends in 3usize..8,
        victim in 0usize..3,
    ) {
        let lb = Maglev::new(backends(n_backends), 251);
        let before = lb.table_shares();
        let name = format!("backend-{victim}");
        let moved_budget = before[&name];
        let lb2 = Maglev::new(backends(n_backends), 251);
        lb2.fail_backend(&name);
        let after = lb2.table_shares();
        prop_assert!(!after.contains_key(&name));
        // Every surviving backend keeps at least its previous share
        // (slots only flow *from* the victim, modulo small reshuffles).
        for (b, &share) in &after {
            let prev = before[b];
            prop_assert!(
                share + moved_budget >= prev && share >= prev.saturating_sub(moved_budget / 2),
                "{b}: {prev} -> {share} with budget {moved_budget}"
            );
        }
    }

    /// NAT port allocations are unique, in range, and the reverse map is
    /// consistent — across arbitrary interleavings of opens and closes.
    #[test]
    fn nat_mappings_bijective(ops_seq in prop::collection::vec((0u16..64, prop::bool::ANY), 1..80)) {
        let mut nat = MazuNat::new("198.51.100.1".parse().unwrap(), (50000, 50200));
        let mut open: HashSet<u16> = HashSet::new();
        for (flow, close) in ops_seq {
            let src: SocketAddrV4 = format!("192.168.0.7:{}", 1000 + flow).parse().unwrap();
            let mut p = PacketBuilder::tcp()
                .src(src)
                .dst("93.184.216.34:443".parse().unwrap())
                .build();
            let fid = p.five_tuple().unwrap().fid();
            p.set_fid(fid);
            if close {
                nat.flow_closed(fid);
                open.remove(&flow);
            } else {
                let mut counter = OpCounter::default();
                let mut ctx = NfContext::baseline(&mut counter);
                let verdict = nat.process(&mut p, &mut ctx);
                prop_assert!(verdict.survives(), "port pool is large enough");
                open.insert(flow);
                let port = p.get_field(HeaderField::SrcPort).unwrap().as_port();
                prop_assert!((50000..=50200).contains(&port));
                prop_assert_eq!(nat.flow_for_port(port), Some(fid), "reverse map consistent");
            }
        }
        prop_assert_eq!(nat.mapping_count(), open.len());
    }

    /// Aho-Corasick agrees with naive substring search on arbitrary
    /// patterns and haystacks.
    #[test]
    fn aho_corasick_matches_naive(
        patterns in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..6), 1..6),
        haystack in prop::collection::vec(any::<u8>(), 0..300),
    ) {
        check_against_naive(&patterns, &haystack);
    }

    /// The same over a three-letter alphabet, where failure links, shared
    /// prefixes, suffix patterns, duplicates and overlapping occurrences
    /// are the common case.
    #[test]
    fn aho_corasick_small_alphabet_matches_naive(
        patterns in small_patterns(),
        haystack in small(0..200),
    ) {
        check_against_naive(&patterns, &haystack);
    }

    /// SnortLite logs exactly what a reference that tries every rule in
    /// order logs: the first rule whose header and payload checks hold,
    /// unless it is a pass rule. Short patterns over a five-letter
    /// alphabet make a payload hit many rules, more than the engine's
    /// prefilter tracks one by one.
    #[test]
    fn snort_matches_first_rule_reference(
        rules in prop::collection::vec(snort_rule(), 1..20),
        packets in prop::collection::vec(
            (
                prop::sample::select(vec![80u16, 8080, 9000]),
                prop::collection::vec(prop::sample::select(SNORT_ALPHABET.to_vec()), 0..40),
            ),
            1..12,
        ),
    ) {
        let rules: Vec<Rule> =
            rules.into_iter().enumerate().map(|(i, r)| Rule { msg: format!("rule {i}"), ..r }).collect();
        let mut ids = SnortLite::new(rules.clone());
        let mut want = Vec::new();
        for (dst_port, payload) in &packets {
            let mut p = PacketBuilder::tcp()
                .src("10.0.0.1:1234".parse().unwrap())
                .dst(format!("10.0.0.2:{dst_port}").parse().unwrap())
                .payload(payload)
                .build();
            let fid = p.five_tuple().unwrap().fid();
            p.set_fid(fid);
            let mut counter = OpCounter::default();
            let mut ctx = NfContext::baseline(&mut counter);
            prop_assert!(ids.process(&mut p, &mut ctx).survives());
            let first = rules.iter().find(|r| {
                r.matches_header(Protocol::Tcp, 1234, *dst_port) && r.matches_payload(payload)
            });
            if let Some(r) = first.filter(|r| r.action != RuleAction::Pass) {
                want.push(LogEntry { action: r.action, msg: r.msg.clone(), fid });
            }
        }
        prop_assert_eq!(ids.log(), want);
    }

    /// The regex compiler is total (arbitrary patterns either compile or
    /// return an error, never panic), and matching never panics.
    #[test]
    fn regex_compile_and_match_total(pattern in ".{0,40}", hay in prop::collection::vec(any::<u8>(), 0..200)) {
        if let Ok(re) = Regex::new(&pattern) {
            let _ = re.is_match(&hay);
            let _ = re.is_match(b"");
        }
    }

    /// A regex built from escaped literal bytes matches exactly the
    /// haystacks that contain that literal.
    #[test]
    fn regex_literal_equals_substring_search(
        lit in prop::collection::vec(prop::sample::select(b"abcxyz01".to_vec()), 1..6),
        hay in prop::collection::vec(prop::sample::select(b"abcxyz01".to_vec()), 0..60),
    ) {
        let pattern: String = lit.iter().map(|&b| b as char).collect();
        let re = Regex::new(&pattern).unwrap();
        let expect = hay.windows(lit.len()).any(|w| w == lit.as_slice());
        prop_assert_eq!(re.is_match(&hay), expect);
    }

    /// Matching is linear-ish: nested quantifiers over long inputs finish
    /// fast (no catastrophic backtracking by construction).
    #[test]
    fn regex_no_blowup(n in 100usize..2000) {
        let re = Regex::new("(a|aa)+c").unwrap();
        let hay = vec![b'a'; n];
        let start = std::time::Instant::now();
        prop_assert!(!re.is_match(&hay));
        prop_assert!(start.elapsed().as_millis() < 500);
    }

    /// The rule parser never panics on arbitrary input and round-trips the
    /// rules it accepts through header matching sensibly.

    #[test]
    fn snort_rule_parser_total(line in ".{0,200}") {
        let _ = line.parse::<speedybox_nf::snort::Rule>();
    }

    /// Maglev flow assignment is sticky under arbitrary packet orders:
    /// the same flow always reaches the same backend while it is healthy.
    #[test]
    fn maglev_stickiness(ports in prop::collection::vec(1000u16..1032, 1..40)) {
        let mut lb = Maglev::new(backends(5), 251);
        let mut assigned: std::collections::HashMap<u16, std::net::Ipv4Addr> =
            std::collections::HashMap::new();
        for port in ports {
            let mut p: Packet = PacketBuilder::tcp()
                .src(format!("10.0.0.1:{port}").parse().unwrap())
                .dst("10.99.99.99:80".parse().unwrap())
                .build();
            let fid = p.five_tuple().unwrap().fid();
            p.set_fid(fid);
            let mut counter = OpCounter::default();
            let mut ctx = NfContext::baseline(&mut counter);
            prop_assert!(lb.process(&mut p, &mut ctx).survives());
            let dst = p.get_field(HeaderField::DstIp).unwrap().as_ipv4();
            if let Some(&prev) = assigned.get(&port) {
                prop_assert_eq!(dst, prev, "flow on port {} moved", port);
            } else {
                assigned.insert(port, dst);
            }
        }
    }
}
