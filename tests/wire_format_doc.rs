//! Keeps `docs/wire-format.md` honest: every worked hex dump in the spec
//! is asserted here byte-for-byte against the live encoder, so the
//! document cannot drift from `Message::encode_with` without this test
//! failing. Each constant below is a verbatim copy of the corresponding
//! dump in the spec (whitespace-insensitive hex).

use pelta_fl::{GlobalModel, MemberUpdate, Message, ModelUpdate, NackReason, UpdateCodec};
use pelta_tensor::Tensor;

/// Parses the doc's whitespace-separated hex into bytes.
fn hex(dump: &str) -> Vec<u8> {
    dump.split_whitespace()
        .map(|pair| u8::from_str_radix(pair, 16).expect("doc dumps are hex byte pairs"))
        .collect()
}

fn assert_frame(label: &str, actual: &[u8], documented: &str) {
    assert_eq!(
        actual,
        hex(documented).as_slice(),
        "{label}: docs/wire-format.md dump no longer matches the encoder"
    );
}

/// The tensor every worked example in the spec uses: `[1.0, -2.5]`,
/// rank 1, named `"w"`.
fn doc_tensor() -> Tensor {
    Tensor::from_vec(vec![1.0f32, -2.5], &[2]).unwrap()
}

fn doc_update() -> ModelUpdate {
    ModelUpdate {
        client_id: 2,
        round: 1,
        num_samples: 10,
        parameters: vec![("w".to_string(), doc_tensor())],
    }
}

#[test]
fn join_dump_matches_the_spec() {
    assert_frame(
        "Join",
        &Message::Join { client_id: 3 }.encode(),
        "50 46 4c 01 05 00 00 03 00 00 00 00 00 00 00 a0
         74 49 42 0e 8b cd 40",
    );
}

#[test]
fn round_start_dump_matches_the_spec() {
    let message = Message::RoundStart {
        round: 1,
        global: GlobalModel {
            round: 1,
            parameters: vec![("w".to_string(), doc_tensor())],
        },
    };
    assert_frame(
        "RoundStart",
        &message.encode(),
        "50 46 4c 01 05 00 01 01 00 00 00 00 00 00 00 01
         00 00 00 00 00 00 00 01 00 00 00 01 00 00 00 77
         01 00 00 00 02 00 00 00 00 00 00 00 00 00 80 3f
         00 00 20 c0 67 eb 35 15 b1 ac c4 ae",
    );
}

#[test]
fn raw_update_dump_matches_the_spec() {
    let message = Message::Update {
        update: doc_update(),
        shielded: Vec::new(),
    };
    assert_frame(
        "Update raw",
        &message.encode(),
        "50 46 4c 01 05 00 02 00 01 00 00 00 00 00 00 00
         02 00 00 00 00 00 00 00 0a 00 00 00 00 00 00 00
         01 00 00 00 01 00 00 00 77 01 00 00 00 02 00 00
         00 00 00 00 00 00 00 80 3f 00 00 20 c0 00 00 00
         00 11 2a 6e 48 5d fb 21 e4",
    );
}

#[test]
fn bf16_update_dump_matches_the_spec() {
    let message = Message::Update {
        update: doc_update(),
        shielded: Vec::new(),
    };
    assert_frame(
        "Update bf16",
        &message.encode_with(UpdateCodec::Bf16),
        "50 46 4c 01 05 00 02 01 01 00 00 00 00 00 00 00
         02 00 00 00 00 00 00 00 0a 00 00 00 00 00 00 00
         01 00 00 00 01 00 00 00 77 01 00 00 00 02 00 00
         00 00 00 00 00 80 3f 20 c0 00 00 00 00 14 9f 2a
         af d4 2a 23 9a",
    );
}

#[test]
fn round_end_and_leave_dumps_match_the_spec() {
    assert_frame(
        "RoundEnd",
        &Message::RoundEnd { round: 6 }.encode(),
        "50 46 4c 01 05 00 03 06 00 00 00 00 00 00 00 50
         8c 16 b6 50 8b 47 77",
    );
    assert_frame(
        "Leave",
        &Message::Leave { client_id: 3 }.encode(),
        "50 46 4c 01 05 00 04 03 00 00 00 00 00 00 00 ec
         4c b5 94 84 e0 76 8e",
    );
}

#[test]
fn nack_dump_matches_the_spec() {
    let message = Message::Nack {
        client_id: 2,
        round: 1,
        reason: NackReason::Duplicate,
    };
    assert_frame(
        "Nack",
        &message.encode(),
        "50 46 4c 01 05 00 05 02 00 00 00 00 00 00 00 01
         00 00 00 00 00 00 00 03 00 00 00 00 94 e8 30 9e
         46 61 14 ec",
    );
}

#[test]
fn aggregate_update_dump_matches_the_spec() {
    let message = Message::AggregateUpdate {
        origin: 0,
        round: 1,
        members: vec![MemberUpdate::clear(doc_update())],
    };
    assert_frame(
        "AggregateUpdate raw",
        &message.encode(),
        "50 46 4c 01 05 00 06 00 00 00 00 00 00 00 00 00
         01 00 00 00 00 00 00 00 01 00 00 00 01 00 00 00
         00 00 00 00 02 00 00 00 00 00 00 00 0a 00 00 00
         00 00 00 00 01 00 00 00 01 00 00 00 77 01 00 00
         00 02 00 00 00 00 00 00 00 00 00 80 3f 00 00 20
         c0 00 00 00 00 ed c0 02 20 98 bd 54 1f",
    );
}

#[test]
fn mask_share_request_dump_matches_the_spec() {
    let message = Message::MaskShare {
        client_id: usize::MAX,
        round: 1,
        seats: vec![3],
        seeds: Vec::new(),
    };
    assert_frame(
        "MaskShare request",
        &message.encode(),
        "50 46 4c 01 05 00 07 ff ff ff ff ff ff ff ff 01
         00 00 00 00 00 00 00 01 00 00 00 03 00 00 00 00
         00 00 00 00 00 00 00 09 9f bc ac 52 a1 4a 90",
    );
}

#[test]
fn mask_share_response_dump_matches_the_spec() {
    let message = Message::MaskShare {
        client_id: 2,
        round: 1,
        seats: vec![3],
        seeds: vec![0x1122_3344_5566_7788],
    };
    assert_frame(
        "MaskShare response",
        &message.encode(),
        "50 46 4c 01 05 00 07 02 00 00 00 00 00 00 00 01
         00 00 00 00 00 00 00 01 00 00 00 03 00 00 00 00
         00 00 00 01 00 00 00 88 77 66 55 44 33 22 11 b2
         b5 14 7f b0 80 52 d6",
    );
}
