//! Property tests for the wire format: every frame type round-trips
//! through encode → reassembly → decode, and malformed input (truncated,
//! corrupted, oversized) is rejected with an error — never a panic.

use bh_proto::wire::{
    decode_message_legacy, read_message, write_message, FrameAssembler, HintAction, HintUpdate,
    MachineId, Message, MetaEntry, MetaOp, MetaStatus, ServedBy, Status, MAX_FRAME,
};
use bytes::Bytes;
use proptest::prelude::*;
use std::io::Cursor;

fn arb_url() -> BoxedStrategy<String> {
    // Mostly URL-ish ASCII, with arbitrary unicode mixed in: the format
    // carries any UTF-8 string.
    prop_oneof![
        (any::<u64>(), 0usize..40).prop_map(|(key, extra)| {
            let mut url = format!("http://host-{}.test/obj/{key:x}", key % 17);
            for i in 0..extra {
                url.push(char::from(b'a' + (i % 26) as u8));
            }
            url
        }),
        proptest::collection::vec(any::<char>(), 0..24)
            .prop_map(|chars| chars.into_iter().collect::<String>()),
    ]
    .boxed()
}

fn arb_body() -> BoxedStrategy<Bytes> {
    proptest::collection::vec(any::<u8>(), 0..2048)
        .prop_map(Bytes::from)
        .boxed()
}

fn arb_hint_update() -> BoxedStrategy<HintUpdate> {
    (any::<bool>(), any::<u64>(), any::<u64>())
        .prop_map(|(add, object, machine)| HintUpdate {
            action: if add {
                HintAction::Add
            } else {
                HintAction::Remove
            },
            object,
            machine: MachineId(machine),
        })
        .boxed()
}

fn arb_status() -> BoxedStrategy<Status> {
    prop_oneof![
        Just(Status::Ok),
        Just(Status::NotFound),
        Just(Status::Error),
        Just(Status::Redirect),
    ]
    .boxed()
}

fn arb_served_by() -> BoxedStrategy<ServedBy> {
    prop_oneof![
        Just(ServedBy::Local),
        Just(ServedBy::Origin),
        any::<u64>().prop_map(|m| ServedBy::Peer(MachineId(m))),
    ]
    .boxed()
}

fn arb_meta_op() -> BoxedStrategy<MetaOp> {
    prop_oneof![Just(MetaOp::Get), Just(MetaOp::List), Just(MetaOp::Set),].boxed()
}

fn arb_meta_status() -> BoxedStrategy<MetaStatus> {
    prop_oneof![
        Just(MetaStatus::Ok),
        Just(MetaStatus::NotFound),
        Just(MetaStatus::Denied),
        Just(MetaStatus::Invalid),
    ]
    .boxed()
}

fn arb_meta_path() -> BoxedStrategy<String> {
    // Mostly namespace-shaped paths, with arbitrary unicode mixed in: the
    // codec carries any UTF-8 string; path validation is the resolver's job.
    prop_oneof![
        (any::<u64>(), 0usize..4).prop_map(|(id, depth)| {
            let mut path = format!("mesh/nodes/{}", id % 9);
            for seg in ["metrics", "hints", "pool", "control"].iter().take(depth) {
                path.push('/');
                path.push_str(seg);
            }
            path
        }),
        proptest::collection::vec(any::<char>(), 0..24)
            .prop_map(|chars| chars.into_iter().collect::<String>()),
    ]
    .boxed()
}

fn arb_meta_entry() -> BoxedStrategy<MetaEntry> {
    (
        arb_meta_path(),
        proptest::collection::vec(any::<char>(), 0..16),
    )
        .prop_map(|(path, chars)| MetaEntry {
            path,
            value: chars.into_iter().collect(),
        })
        .boxed()
}

/// Every frame type in the protocol, including `HintBatch`.
fn arb_message() -> BoxedStrategy<Message> {
    prop_oneof![
        arb_url().prop_map(|url| Message::Get { url }),
        arb_url().prop_map(|url| Message::PeerGet { url }),
        (arb_status(), any::<u32>(), arb_served_by(), arb_body()).prop_map(
            |(status, version, served_by, body)| Message::GetReply {
                status,
                version,
                served_by,
                body
            }
        ),
        (
            any::<u64>(),
            proptest::collection::vec(arb_hint_update(), 0..64)
        )
            .prop_map(|(sender, updates)| Message::hint_batch(MachineId(sender), updates)),
        (arb_url(), any::<u32>(), arb_body()).prop_map(|(url, version, body)| Message::Push {
            url,
            version,
            body
        }),
        any::<u64>().prop_map(|key| Message::FindNearest { key }),
        prop_oneof![
            Just(Message::FindNearestReply { location: None }),
            any::<u64>().prop_map(|m| Message::FindNearestReply {
                location: Some(MachineId(m))
            }),
        ],
        (arb_url(), any::<u32>(), arb_body()).prop_map(|(url, version, body)| Message::OriginPut {
            url,
            version,
            body
        }),
        Just(Message::Ack),
        Just(Message::Ping),
        Just(Message::Resync),
        (
            arb_meta_op(),
            arb_meta_path(),
            proptest::collection::vec(any::<char>(), 0..16)
        )
            .prop_map(|(op, path, value)| Message::MetaRequest {
                op,
                path,
                value: value.into_iter().collect(),
            }),
        (
            arb_meta_status(),
            proptest::collection::vec(arb_meta_entry(), 0..32)
        )
            .prop_map(|(status, entries)| Message::MetaReply { status, entries }),
    ]
    .boxed()
}

/// Tags that no frame uses: 0 was never assigned, 4 and 13–16 are retired
/// (plain hint batch, stats/trace scrape). They must decode as unknown.
const RESERVED_TAGS: [u8; 6] = [0, 4, 13, 14, 15, 16];

/// Splits `frame` into `(type, payload)` as the assembler would.
fn frame_parts(frame: &[u8]) -> (u8, Bytes) {
    assert!(frame.len() >= 5, "frame shorter than its header");
    let len = u32::from_le_bytes([frame[0], frame[1], frame[2], frame[3]]) as usize;
    assert_eq!(len + 5, frame.len(), "length prefix must cover the payload");
    (frame[4], Bytes::from(frame[5..].to_vec()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// encode → FrameAssembler → decode is the identity for every frame
    /// type (the path the sharded engine uses).
    #[test]
    fn round_trips_through_assembler(msg in arb_message()) {
        let mut assembler = FrameAssembler::new();
        assembler.extend(&msg.encoded());
        let decoded = assembler.next_message();
        prop_assert!(decoded.is_ok(), "decode failed: {:?}", decoded);
        prop_assert_eq!(decoded.unwrap(), Some(msg));
        prop_assert_eq!(assembler.buffered(), 0);
    }

    /// write_message → read_message is the identity (the blocking path the
    /// client, pool, and origin use).
    #[test]
    fn round_trips_through_streams(msg in arb_message()) {
        let mut buf = Vec::new();
        write_message(&mut buf, &msg).expect("write to vec");
        let decoded = read_message(&mut Cursor::new(buf));
        prop_assert!(decoded.is_ok(), "decode failed: {:?}", decoded);
        prop_assert_eq!(decoded.unwrap(), msg);
    }

    /// `encode_head` plus the body it returns is byte-identical to
    /// `encode`: the split write path puts the same frame on the wire.
    #[test]
    fn encode_head_then_body_matches_encode(msg in arb_message()) {
        let mut head = bytes::BytesMut::with_capacity(64);
        let body = msg.encode_head(&mut head).cloned();
        prop_assert_eq!(body.is_some(), matches!(msg, Message::GetReply { .. }));
        let mut split = head.to_vec();
        split.extend_from_slice(body.as_deref().unwrap_or_default());
        prop_assert_eq!(&split[..], &msg.encoded()[..]);
    }

    /// Reassembly is byte-boundary independent: delivering the frame in
    /// arbitrary chunks yields the same message.
    #[test]
    fn round_trips_split_delivery(msg in arb_message(), cut in any::<u64>()) {
        let frame = msg.encoded();
        let cut = 1 + (cut as usize) % frame.len().max(1);
        let mut assembler = FrameAssembler::new();
        assembler.extend(&frame[..cut.min(frame.len())]);
        if cut < frame.len() {
            // Nothing complete yet or a full message, never an error.
            let early = assembler.next_message();
            prop_assert!(early.is_ok(), "partial frame errored: {:?}", early);
            assembler.extend(&frame[cut..]);
        }
        let decoded = assembler.next_message();
        prop_assert!(decoded.is_ok(), "decode failed: {:?}", decoded);
        prop_assert_eq!(decoded.unwrap(), Some(msg));
    }

    /// Every strict prefix of a valid payload is rejected with an error —
    /// truncation can never produce a bogus message or a panic.
    #[test]
    fn truncated_payloads_error(msg in arb_message()) {
        let (ty, payload) = frame_parts(&msg.encoded());
        for cut in 0..payload.len() {
            let truncated = payload.slice(0..cut);
            let result = Message::decode(ty, truncated);
            prop_assert!(result.is_err(), "prefix {}/{} decoded: {:?}", cut, payload.len(), result);
        }
    }

    /// Arbitrary single-byte corruption anywhere in the payload either
    /// decodes to something or errors — it never panics.
    #[test]
    fn corrupted_payloads_never_panic(
        msg in arb_message(),
        pos in any::<u64>(),
        xor in 1u8..=255,
    ) {
        let (ty, payload) = frame_parts(&msg.encoded());
        let mut bytes = payload.to_vec();
        if !bytes.is_empty() {
            let pos = (pos as usize) % bytes.len();
            bytes[pos] ^= xor;
        }
        let _ = Message::decode(ty, Bytes::from(bytes));
    }

    /// Fully random `(type, payload)` pairs never panic the decoder.
    #[test]
    fn random_garbage_never_panics(
        ty in any::<u8>(),
        payload in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let _ = Message::decode(ty, Bytes::from(payload));
    }

    /// Unknown and reserved frame types are always rejected.
    #[test]
    fn unknown_frame_types_error(
        ty in prop_oneof![19u8..=255, (0usize..RESERVED_TAGS.len()).prop_map(|i| RESERVED_TAGS[i])],
        payload in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let err = Message::decode(ty, Bytes::from(payload.clone())).expect_err("unknown tag decoded");
        prop_assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        prop_assert!(decode_message_legacy(ty, &payload).is_err());
    }

    /// The zero-copy decoder is value-identical to the retained legacy
    /// (copy-everything) decoder on every valid frame.
    #[test]
    fn zero_copy_decode_matches_legacy_on_valid_frames(msg in arb_message()) {
        let (ty, payload) = frame_parts(&msg.encoded());
        let legacy = decode_message_legacy(ty, &payload).expect("legacy rejects valid frame");
        let zero_copy = Message::decode(ty, payload).expect("zero-copy rejects valid frame");
        prop_assert_eq!(&zero_copy, &legacy);
        prop_assert_eq!(zero_copy, msg);
    }

    /// ...and outcome-identical over the malformed-frame corpus: for every
    /// strict prefix and every single-byte corruption of a valid payload,
    /// either both decoders error or both produce the same message.
    #[test]
    fn zero_copy_decode_matches_legacy_on_malformed_frames(
        msg in arb_message(),
        pos in any::<u64>(),
        xor in 1u8..=255,
    ) {
        let (ty, payload) = frame_parts(&msg.encoded());
        for cut in 0..payload.len() {
            let truncated = payload.slice(0..cut);
            let legacy = decode_message_legacy(ty, &truncated);
            let zero_copy = Message::decode(ty, truncated);
            prop_assert!(legacy.is_err() && zero_copy.is_err(),
                "prefix {}/{}: legacy {:?} vs zero-copy {:?}", cut, payload.len(), legacy, zero_copy);
        }
        let mut corrupted = payload.to_vec();
        if !corrupted.is_empty() {
            let pos = (pos as usize) % corrupted.len();
            corrupted[pos] ^= xor;
        }
        let legacy = decode_message_legacy(ty, &corrupted);
        let zero_copy = Message::decode(ty, Bytes::from(corrupted));
        match (legacy, zero_copy) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
            (Err(_), Err(_)) => {}
            (a, b) => prop_assert!(false, "decoders diverged: legacy {:?} vs zero-copy {:?}", a, b),
        }
    }

    /// Fully random payloads: the two decoders agree on accept/reject and
    /// on the decoded value when both accept.
    #[test]
    fn zero_copy_decode_matches_legacy_on_garbage(
        ty in any::<u8>(),
        payload in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let legacy = decode_message_legacy(ty, &payload);
        let zero_copy = Message::decode(ty, Bytes::from(payload));
        match (legacy, zero_copy) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
            (Err(_), Err(_)) => {}
            (a, b) => prop_assert!(false, "decoders diverged: legacy {:?} vs zero-copy {:?}", a, b),
        }
    }
}

/// A length prefix larger than `MAX_FRAME` is rejected up front by both
/// framed readers, before any allocation of that size.
#[test]
fn oversized_frames_rejected() {
    let mut frame = Vec::new();
    frame.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
    frame.push(1); // T_GET
    frame.extend_from_slice(&[0u8; 32]);

    let mut assembler = FrameAssembler::new();
    assembler.extend(&frame);
    assert!(
        assembler.next_message().is_err(),
        "assembler must reject oversized frames"
    );

    assert!(
        read_message(&mut Cursor::new(frame)).is_err(),
        "read_message must reject too"
    );
}

/// A batch whose count field promises more records than `MAX_FRAME` could
/// hold is rejected without attempting the allocation.
#[test]
fn oversized_batch_counts_rejected() {
    let mut payload = vec![bh_proto::wire::HINT_BATCH_VERSION];
    payload.extend_from_slice(&7u64.to_le_bytes()); // sender
    payload.extend_from_slice(&u32::MAX.to_le_bytes());
    payload.extend_from_slice(&[0u8; 40]);
    let err = Message::decode(10, Bytes::from(payload)); // T_HINT_BATCH
    assert!(err.is_err(), "HintBatch accepted an absurd batch count");
}

/// `HintBatch` decoding is strictly versioned: a version byte newer than
/// ours errors instead of misparsing records.
#[test]
fn hint_batch_future_version_rejected() {
    let update = HintUpdate {
        action: HintAction::Add,
        object: 7,
        machine: MachineId(3),
    };
    let (ty, payload) = frame_parts(&Message::hint_batch(MachineId(1), vec![update]).encoded());
    let mut bytes = payload.to_vec();
    bytes[0] = bh_proto::wire::HINT_BATCH_VERSION + 1;
    assert!(Message::decode(ty, Bytes::from(bytes)).is_err());
}

/// A corrupted batch still *decodes* (authentication is the node's job,
/// not the codec's) but its embedded tag no longer verifies — for any
/// single-byte corruption of the records region.
#[test]
fn corrupted_hint_batch_fails_tag_verification() {
    let updates: Vec<HintUpdate> = (1..=4)
        .map(|i| HintUpdate {
            action: HintAction::Add,
            object: i,
            machine: MachineId(i << 16),
        })
        .collect();
    let sender = MachineId(9 << 16);
    let (ty, payload) = frame_parts(&Message::hint_batch(sender, updates).encoded());
    // Records region: after version(1) + sender(8) + count(4), before the
    // 16-byte trailing tag.
    for pos in 13..payload.len() - 16 {
        let mut bytes = payload.to_vec();
        bytes[pos] ^= 0x01;
        match Message::decode(ty, Bytes::from(bytes)) {
            Ok(Message::HintBatch {
                sender: s,
                updates: u,
                tag,
            }) => {
                assert_ne!(
                    bh_proto::wire::hint_batch_tag(s, &u),
                    tag,
                    "corruption at byte {pos} went undetected"
                );
            }
            Ok(other) => panic!("decoded to a different frame: {other:?}"),
            Err(_) => {} // rejected outright is fine too (bad action code)
        }
    }
}
