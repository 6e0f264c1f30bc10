#!/usr/bin/env python3
"""Checks scripts/hostprof.py's folding on a committed flat profile.

    python3 scripts/test_hostprof.py

The fixture (scripts/testdata/hostprof_flat.txt) is `gprof -b -p` output of
a static -pg nwsbench, trimmed to a few rows of the chaos_rebuild,
serving_snapshot and posix_meta profiles.  The checks: the shares sum to 1,
known symbols land in their buckets, and the libc.mem share is the memory
functions' self time over the total.  No profiling run, no timing.
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
    ("_IO_default_xsputn", "other"),
]


class FoldFixture(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(FIXTURE) as f:
            cls.rows = hostprof.parse_flat(f.read())
        cls.total, cls.shares = hostprof.fold(cls.rows)

    def test_every_row_parsed(self):
        self.assertEqual(len(self.rows), 26)
        self.assertAlmostEqual(self.total, 2.85, places=6)

    def test_shares_sum_to_one(self):
        self.assertAlmostEqual(sum(self.shares.values()), 1.0, places=9)
        self.assertTrue(all(share >= 0 for share in self.shares.values()))

    def test_known_symbols_land_in_their_buckets(self):
        for prefix, expected in EXPECTED:
            matches = [symbol for _, symbol in self.rows if symbol.startswith(prefix)]
            self.assertEqual(len(matches), 1, prefix)
            self.assertEqual(hostprof.bucket(matches[0]), expected, matches[0])

    def test_libc_mem_share_is_the_memory_functions_self_time(self):
        # memset 0.65 + memmove 0.49 + memcmp 0.11 seconds of 2.85.
        self.assertAlmostEqual(self.shares["libc.mem"], 1.25 / 2.85, places=9)

    def test_empty_profile_is_refused(self):
        with self.assertRaises(ValueError):
            hostprof.fold(hostprof.parse_flat("Flat profile:\n\nno rows\n"))


if __name__ == "__main__":
    unittest.main(verbosity=1)
