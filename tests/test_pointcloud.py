import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riterp import PointCloud, filter_by_range, read_kitti_bin, read_ply, write_ply
from riterp.pointcloud import write_kitti_bin

from conftest import kitti_scans
from oracles import decode_kitti_bin, parse_ply


class TestPointCloud:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="NaN"):
            PointCloud(points=np.array([[1.0, 2.0, np.nan]]))

    def test_rejects_intensity_length_mismatch(self):
        with pytest.raises(ValueError, match="intensity"):
            PointCloud(points=np.zeros((3, 3)), intensity=np.zeros(2))

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError, match="shape"):
            PointCloud(points=np.zeros((3, 2)))

    def test_empty_cloud(self):
        cloud = PointCloud(points=np.zeros((0, 3)))
        assert len(cloud) == 0


class TestReadKittiBin:
    def test_two_record_file(self, tmp_path):
        payload = struct.pack("<8f", 1, 2, 3, 0.5, 4, 5, 6, 0.25)
        path = tmp_path / "scan.bin"
        path.write_bytes(payload)
        cloud = read_kitti_bin(path)
        assert len(cloud) == 2
        np.testing.assert_array_equal(cloud.points, [[1, 2, 3], [4, 5, 6]])
        np.testing.assert_array_equal(cloud.intensity, [0.5, 0.25])

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        assert len(read_kitti_bin(path)) == 0

    def test_bad_size_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x00" * 17)
        with pytest.raises(ValueError, match="multiple of 16"):
            read_kitti_bin(path)

    def test_unreadable_path(self, tmp_path):
        with pytest.raises(OSError):
            read_kitti_bin(tmp_path / "missing.bin")

    def test_non_finite_coordinates_name_the_file(self, tmp_path):
        path = tmp_path / "nan.bin"
        path.write_bytes(struct.pack("<8f", 1, 2, 3, 0, 4, float("nan"), 6, 0))
        with pytest.raises(ValueError, match="NaN or Inf") as err:
            read_kitti_bin(path)
        assert str(path) in str(err.value)

    def test_decode_bit_matches_source_bytes(self, tmp_path):
        rng = np.random.default_rng(7)
        values = rng.uniform(-80, 80, size=(64, 4)).astype("<f4")
        path = tmp_path / "rand.bin"
        path.write_bytes(values.tobytes())
        cloud = read_kitti_bin(path)
        expected = np.array(decode_kitti_bin(path), dtype=np.float32)
        assert np.array_equal(cloud.points.astype(np.float32), expected[:, :3])
        assert np.array_equal(cloud.intensity.astype(np.float32), expected[:, 3])

    @pytest.mark.skipif(not kitti_scans(), reason="RITERP_KITTI_DIR not set")
    def test_real_scan(self):
        path = kitti_scans()[0]
        cloud = read_kitti_bin(path)
        records = decode_kitti_bin(path)
        assert len(cloud) == len(records)
        assert 60_000 <= len(cloud) <= 150_000
        assert cloud.ranges().max() < 120.0


class TestWritePly:
    def test_header_echoes_count(self, tmp_path):
        cloud = PointCloud(points=[[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        path = tmp_path / "two.ply"
        write_ply(cloud, path)
        assert b"element vertex 2" in path.read_bytes()

    def test_color_mismatch_rejected(self, tmp_path):
        cloud = PointCloud(points=[[1.0, 2.0, 3.0]])
        with pytest.raises(ValueError, match="color"):
            write_ply(cloud, tmp_path / "x.ply", color=np.zeros((2, 3), dtype=np.uint8))

    def test_roundtrip_via_independent_parser(self, tmp_path):
        rng = np.random.default_rng(3)
        pts = rng.uniform(-50, 50, size=(200, 3)).astype(np.float32).astype(np.float64)
        cloud = PointCloud(points=pts)
        path = tmp_path / "rt.ply"
        write_ply(cloud, path)
        parsed = parse_ply(path)
        recovered = np.stack([parsed["x"], parsed["y"], parsed["z"]], axis=1)
        # float32-representable inputs survive exactly
        assert np.array_equal(recovered.astype(np.float32), pts.astype(np.float32))

    def test_roundtrip_with_color(self, tmp_path):
        rng = np.random.default_rng(4)
        pts = rng.uniform(-10, 10, size=(50, 3)).astype(np.float32)
        color = rng.integers(0, 256, size=(50, 3)).astype(np.uint8)
        path = tmp_path / "color.ply"
        write_ply(PointCloud(points=pts), path, color=color)
        parsed = parse_ply(path)
        assert np.array_equal(parsed["red"], color[:, 0])
        assert np.array_equal(parsed["blue"], color[:, 2])

    def test_read_ply_recovers_coordinates(self, tmp_path):
        pts = np.array([[1.5, -2.25, 3.0], [0.0, 7.0, -1.125]])
        path = tmp_path / "own.ply"
        write_ply(PointCloud(points=pts), path)
        again = read_ply(path)
        assert np.array_equal(again.points, pts)

    def test_read_ply_unknown_property_type(self, tmp_path):
        path = tmp_path / "half.ply"
        header = ("ply\nformat binary_little_endian 1.0\nelement vertex 1\n"
                  "property float x\nproperty float y\nproperty float z\n"
                  "property half w\nend_header\n")
        path.write_bytes(header.encode("ascii") + bytes(14))
        with pytest.raises(ValueError, match="half") as err:
            read_ply(path)
        assert str(path) in str(err.value)

    def test_read_ply_non_finite_coordinates_name_the_file(self, tmp_path):
        path = tmp_path / "inf.ply"
        header = ("ply\nformat binary_little_endian 1.0\nelement vertex 1\n"
                  "property float x\nproperty float y\nproperty float z\nend_header\n")
        path.write_bytes(header.encode("ascii") + struct.pack("<3f", 1, float("inf"), 3))
        with pytest.raises(ValueError, match="NaN or Inf") as err:
            read_ply(path)
        assert str(path) in str(err.value)


    @pytest.mark.parametrize("count", ["-1", "11", "99999999999999999999"])
    def test_read_ply_impossible_vertex_count_names_the_file(self, count, tmp_path):
        path = tmp_path / "count.ply"
        header = ("ply\nformat binary_little_endian 1.0\nelement vertex {}\n"
                  "property float x\nproperty float y\nproperty float z\nend_header\n")
        path.write_bytes(header.format(count).encode("ascii") + bytes(10 * 12))
        with pytest.raises(ValueError, match="vertex") as err:
            read_ply(path)
        assert str(path) in str(err.value)

    def test_read_ply_duplicate_property_names_the_file(self, tmp_path):
        path = tmp_path / "twice.ply"
        header = ("ply\nformat binary_little_endian 1.0\nelement vertex 1\n"
                  "property float x\nproperty float x\nproperty float y\n"
                  "property float z\nend_header\n")
        path.write_bytes(header.encode("ascii") + bytes(16))
        with pytest.raises(ValueError, match="duplicate.*'x'") as err:
            read_ply(path)
        assert str(path) in str(err.value)

    def test_read_ply_header_cut_names_the_file(self, tmp_path):
        path = tmp_path / "cut.ply"
        write_ply(PointCloud(points=np.ones((10, 3))), path)
        raw = path.read_bytes()
        for cut in range(raw.index(b"end_header")):
            path.write_bytes(raw[:cut])
            with pytest.raises(ValueError) as err:
                read_ply(path)
            assert str(path) in str(err.value), cut


class TestKittiBinWriter:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(5)
        pts = rng.uniform(-40, 40, size=(100, 3)).astype(np.float32)
        inten = rng.uniform(0, 1, size=100).astype(np.float32)
        cloud = PointCloud(points=pts, intensity=inten)
        path = tmp_path / "w.bin"
        write_kitti_bin(cloud, path)
        again = read_kitti_bin(path)
        assert np.array_equal(again.points, pts.astype(np.float64))
        assert np.array_equal(again.intensity, inten.astype(np.float64))


class TestFilterByRange:
    def test_keeps_only_in_band(self):
        cloud = PointCloud(points=[[0.5, 0, 0], [5.0, 0, 0], [200.0, 0, 0]])
        out = filter_by_range(cloud, 2.0, 120.0)
        assert len(out) == 1
        assert out.points[0, 0] == 5.0

    def test_wide_band_is_identity(self):
        rng = np.random.default_rng(11)
        cloud = PointCloud(points=rng.uniform(-50, 50, size=(500, 3)))
        out = filter_by_range(cloud, 0.0, 1e9)
        assert np.array_equal(out.points, cloud.points)

    def test_intensity_filtered_in_lockstep(self):
        cloud = PointCloud(points=[[1.0, 0, 0], [10.0, 0, 0]], intensity=[0.25, 0.75])
        out = filter_by_range(cloud, 5.0, 20.0)
        np.testing.assert_array_equal(out.intensity, [0.75])

    def test_bad_bounds_rejected(self):
        cloud = PointCloud(points=np.zeros((1, 3)))
        with pytest.raises(ValueError):
            filter_by_range(cloud, 5.0, 5.0)
        with pytest.raises(ValueError):
            filter_by_range(cloud, -1.0, 5.0)

    def test_survivor_count_matches_brute_recount(self, synth_cloud):
        out = filter_by_range(synth_cloud, 2.0, 120.0)
        expected = sum(
            1 for p in synth_cloud.points
            if 2.0 <= float(np.sqrt(p @ p)) <= 120.0
        )
        assert len(out) == expected

    def test_idempotent(self, synth_cloud):
        once = filter_by_range(synth_cloud, 3.0, 60.0)
        twice = filter_by_range(once, 3.0, 60.0)
        assert np.array_equal(once.points, twice.points)


PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)
CLOUDS = st.builds(
    lambda n, seed: PointCloud(points=np.random.default_rng(seed).uniform(-80, 80, (n, 3))),
    st.integers(1, 40), st.integers(0, 2**32 - 1))


class TestReaderProperties:
    """Truncated, empty and NaN-bearing files: each reader raises a
    ValueError that names the file, or reads exactly what the file holds."""

    @PROPERTY
    @given(cloud=CLOUDS, data=st.data())
    def test_truncated_ply_names_the_file(self, tmp_path_factory, cloud, data):
        path = tmp_path_factory.mktemp("ply") / "scan.ply"
        write_ply(cloud, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:data.draw(st.integers(0, len(raw) - 1), label="cut")])
        with pytest.raises(ValueError) as err:
            read_ply(path)
        assert str(path) in str(err.value)

    @PROPERTY
    @given(cloud=CLOUDS, data=st.data())
    def test_truncated_bin_names_the_file_or_reads_whole_records(self, tmp_path_factory, cloud, data):
        path = tmp_path_factory.mktemp("bin") / "scan.bin"
        write_kitti_bin(cloud, path)
        raw = path.read_bytes()
        cut = data.draw(st.integers(0, len(raw) - 1), label="cut")
        path.write_bytes(raw[:cut])
        if cut % 16:
            with pytest.raises(ValueError) as err:
                read_kitti_bin(path)
            assert str(path) in str(err.value)
        else:  # a headerless scan cut between records is a shorter scan
            points = read_kitti_bin(path).points
            assert np.array_equal(points, cloud.points.astype(np.float32)[:cut // 16])

    def test_empty_ply_names_the_file(self, tmp_path):
        path = tmp_path / "empty.ply"
        path.write_bytes(b"")
        with pytest.raises(ValueError, match="not a PLY file") as err:
            read_ply(path)
        assert str(path) in str(err.value)

    @PROPERTY
    @given(cloud=CLOUDS, bad=st.sampled_from([np.nan, np.inf, -np.inf]), data=st.data())
    def test_non_finite_coordinate_names_the_file(self, tmp_path_factory, cloud, bad, data):
        where = data.draw(st.integers(0, cloud.points.size - 1), label="coordinate")
        points = cloud.points.copy()
        points.flat[where] = bad
        directory = tmp_path_factory.mktemp("nan")
        records = np.zeros((len(points), 4), dtype="<f4")
        records[:, :3] = points
        header = ("ply\nformat binary_little_endian 1.0\n"
                  f"element vertex {len(points)}\nproperty float x\n"
                  "property float y\nproperty float z\nend_header\n")
        files = {directory / "scan.bin": records.tobytes(),
                 directory / "scan.ply": header.encode("ascii") + points.astype("<f4").tobytes()}
        for path, raw in files.items():
            path.write_bytes(raw)
            with pytest.raises(ValueError, match="NaN or Inf") as err:
                read_ply(path) if path.suffix == ".ply" else read_kitti_bin(path)
            assert str(path) in str(err.value)

    @PROPERTY
    @given(cloud=CLOUDS, bad=st.sampled_from([np.nan, np.inf, -np.inf]), data=st.data())
    def test_non_finite_reflectance_names_the_file(self, tmp_path_factory, cloud, bad, data):
        records = np.zeros((len(cloud), 4), dtype="<f4")
        records[:, :3] = cloud.points
        records[data.draw(st.integers(0, len(cloud) - 1), label="record"), 3] = bad
        path = tmp_path_factory.mktemp("nan") / "scan.bin"
        path.write_bytes(records.tobytes())
        with pytest.raises(ValueError, match="NaN or Inf") as err:
            read_kitti_bin(path)
        assert str(path) in str(err.value)
