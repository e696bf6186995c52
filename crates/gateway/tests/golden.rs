//! Golden routing hashes: `route_key` decides which shard owns an
//! explanation key, so its value must stay stable across releases. A
//! second gateway (or a restarted one) in front of the same fleet has to
//! route every key exactly as the first did, or warm caches and stored
//! masks stop being found.

use revelio_gateway::route_key;
use revelio_graph::Target;

#[test]
fn route_key_is_golden() {
    let cases = [
        (0, 0, Target::Graph, 0x8927_1e7c_3cd8_9676u64),
        (0, 0, Target::Node(0), 0x3245_72b2_5ad7_924c),
        (1, 0xABCD, Target::Node(7), 0xe549_dadc_0766_46c7),
        (
            u32::MAX,
            u64::MAX,
            Target::Node(usize::MAX),
            0xa363_d7bb_d135_6549,
        ),
        (3, 1 << 40, Target::Graph, 0xf036_c253_7c2b_d6b2),
    ];
    for (model, graph_id, target, want) in cases {
        let got = route_key(model, graph_id, target);
        assert_eq!(
            got, want,
            "route_key({model}, {graph_id:#x}, {target:?}) = {got:#018x}"
        );
    }
}
