#!/usr/bin/env python3
"""Checks scripts/hostprof.py's folding and symbol renaming.

    python3 scripts/test_hostprof.py

The fixture (scripts/testdata/hostprof_flat.txt) is `gprof -b -p` output of
a static -pg nwsbench, trimmed to a few rows of the chaos_rebuild,
serving_snapshot and posix_meta profiles; its hostprof_ifunc_stubs row is
the .plt symbol hostprof adds to its copy of the binary.  The checks: the
shares sum to 1, known symbols land in their buckets, and the libc.mem
share is the memory functions' self time over the total.  The rename table is checked on
symbol names of that binary: exactly the names gprof drops are renamed, to
unique names it keeps, and a renamed row maps back to its original name
and bucket (this runs c++filt).  No profiling run, no timing.
"""

import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import hostprof  # noqa: E402

FIXTURE = os.path.join(HERE, "testdata", "hostprof_flat.txt")

# (symbol prefix in the fixture, expected bucket)
EXPECTED = [
    ("nws::bench::make_field_payload(", "harness"),
    ("nws::bench::run_field_pattern(", "harness"),
    ("nwsbench::(anonymous namespace)::field_canonical(", "harness"),
    ("__memset_avx512_unaligned_erms", "libc.mem"),
    ("__memmove_avx512_unaligned_erms", "libc.mem"),
    ("__memcmp_evex_movbe", "libc.mem"),
    ("operator new(unsigned long)", "libc.alloc"),
    ("operator delete(void*, unsigned long)", "libc.alloc"),
    ("unlink_chunk.constprop.0", "libc.alloc"),
    ("nws::net::FlowScheduler::recompute_rates()", "net"),
    ("nws::sim::Scheduler::schedule_handle(", "sim"),
    ("nws::sim::InlineCallback::{lambda(unsigned char*)#8}::_FUN(", "sim"),
    # A sim template on a Status: its own name, not the argument, decides.
    ("nws::sim::Task<nws::Status>::operator co_await()", "sim"),
    ("nws::fdb::FieldIo::read(", "fdb"),
    ("nws::daos::ArrayObject::size(", "daos"),
    ("nws::dfs::Dfs::unpin_snapshot()", "dfs"),
    # Classes directly in nws::, even when instantiated on a daos type.
    ("nws::Result<nws::daos::ArrayHandle>::Result(", "common"),
    ("nws::Md5::process_block(", "common"),
    # std:: templates go to the nws:: type or lambda they were built for.
    ("std::_Function_handler<nws::sim::Task<nws::Result<unsigned long> > (), nws::pgen::", "pgen"),
    ("std::vector<nws::pgen::(anonymous namespace)::AnnouncedField,", "pgen"),
    ("void std::__cxx11::basic_string<char,", "other"),
    ("std::_Rb_tree_increment(", "other"),
    ("__cos_fma", "other"),
    # The static binary's IFUNC stubs, under the symbol hostprof gives .plt.
    (hostprof.IFUNC_STUBS, "libc.ifunc"),
    ("_IO_default_xsputn", "other"),
]


# The I/O server's model_process coroutine body, as GCC 12 names it.
ACTOR = ("_ZN3nws8ioserver12_GLOBAL__N_113model_processEPZNS1_13model_processERNS_4daos7Cluster"
         "ENS0_14PipelineConfigERNS1_13PipelineStateEmE113_ZN3nws8ioserver12_GLOBAL__N_113model_"
         "processERNS_4daos7ClusterENS0_14PipelineConfigERNS1_13PipelineStateEm.Frame.actor")
DROPPED = [
    ACTOR,
    ACTOR.replace(".Frame.actor", ".Frame.destroy"),
    ACTOR + ".cold",
    "_ZN3nws3net13FlowScheduler15recompute_ratesEv.cold",
    "_ZN3nws4fdb7FieldIo4readEv.isra.0",
    "_ZN3nws4fdb7FieldIo4readEv.part.0",
    "_ZN3nws4fdb7FieldIo4readEv.constprop.0.isra.0",
    "_GLOBAL__sub_I_eh_alloc.cc",
]
KEPT = [
    "_ZN3nws4Md513process_blockEPKh",
    "unlink_chunk.constprop.0",
    "_ZN3nws3sim9Scheduler3runEv.clone.3",
    "_ZN3nws4fdb7FieldIo4readEv.1",
    "_ZN3nws4fdb7FieldIo4readEv.constprop.0.2",
]


class RenameTable(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        # A repeated name (a local symbol of two translation units) counts once.
        cls.table = hostprof.rename_table(DROPPED + KEPT + DROPPED[:2])

    def test_exactly_the_dropped_names_are_renamed(self):
        self.assertEqual(sorted(self.table), sorted(DROPPED))

    def test_new_names_are_kept_unique_and_unused(self):
        new = list(self.table.values())
        self.assertEqual(len(set(new)), len(new))
        self.assertFalse(set(new) & set(DROPPED + KEPT))
        for old, name in self.table.items():
            dot = name.index(".")
            self.assertEqual(name[:dot], old[:old.index(".")])
            self.assertTrue(hostprof.KEPT_SUFFIX.fullmatch(name, dot), name)

    def test_renamed_row_maps_back_to_its_name_and_bucket(self):
        rows = [(0.5, self.table[ACTOR]), (0.25, "_ZN3nws3net13FlowScheduler15recompute_ratesEv")]
        (_, actor), (_, solver) = hostprof.restore_names(rows, self.table)
        self.assertTrue(actor.startswith("nws::ioserver::(anonymous namespace)::model_process("))
        self.assertTrue(actor.endswith(" [clone .actor]"), actor)
        self.assertEqual(hostprof.bucket(actor), "ioserver")
        self.assertEqual(solver, "nws::net::FlowScheduler::recompute_rates()")
        # Unmapped, the renamed name no longer demangles and would fall to other.
        self.assertEqual(hostprof.bucket(hostprof.demangle([self.table[ACTOR]])[0]), "other")


class FoldFixture(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(FIXTURE) as f:
            cls.rows = hostprof.parse_flat(f.read())
        cls.total, cls.shares = hostprof.fold(cls.rows)

    def test_every_row_parsed(self):
        self.assertEqual(len(self.rows), 27)
        self.assertAlmostEqual(self.total, 2.91, places=6)

    def test_shares_sum_to_one(self):
        self.assertAlmostEqual(sum(self.shares.values()), 1.0, places=9)
        self.assertTrue(all(share >= 0 for share in self.shares.values()))

    def test_known_symbols_land_in_their_buckets(self):
        for prefix, expected in EXPECTED:
            matches = [symbol for _, symbol in self.rows if symbol.startswith(prefix)]
            self.assertEqual(len(matches), 1, prefix)
            self.assertEqual(hostprof.bucket(matches[0]), expected, matches[0])

    def test_libc_mem_share_is_the_memory_functions_self_time(self):
        # memset 0.65 + memmove 0.49 + memcmp 0.11 seconds of 2.91.
        self.assertAlmostEqual(self.shares["libc.mem"], 1.25 / 2.91, places=9)

    def test_ifunc_stubs_get_their_own_bucket(self):
        self.assertAlmostEqual(self.shares["libc.ifunc"], 0.06 / 2.91, places=9)

    def test_empty_profile_is_refused(self):
        with self.assertRaises(ValueError):
            hostprof.fold(hostprof.parse_flat("Flat profile:\n\nno rows\n"))


if __name__ == "__main__":
    unittest.main(verbosity=1)
