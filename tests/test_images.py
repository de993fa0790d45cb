"""PGM/PPM round-trips and instance loading."""

import numpy as np
import pytest

from provex.cli import main
from provex.errors import SchemaError
from provex.fixtures import random_network
from provex.images import load_instance, read_image, save_instance_csv, write_image
from provex.network import save_network


class TestImageRoundTrip:
    def test_grayscale(self, tmp_path):
        img = (np.arange(12).reshape(3, 4) * 20).astype(np.uint8)
        path = tmp_path / "img.pgm"
        write_image(str(path), img)
        back = read_image(str(path))
        np.testing.assert_allclose(back * 255.0, img, atol=0.5)
        assert back.shape == (3, 4)

    def test_color(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 256, size=(5, 2, 3), dtype=np.uint8)
        path = tmp_path / "img.ppm"
        write_image(str(path), img)
        back = read_image(str(path))
        np.testing.assert_allclose(back * 255.0, img, atol=0.5)
        assert back.shape == (5, 2, 3)

    def test_header_comments_tolerated(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n2 2\n255\n" + bytes([0, 64, 128, 255]))
        img = read_image(str(path))
        assert img.shape == (2, 2)
        assert img[1, 1] == 1.0

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P3\n2 2\n255\n")
        with pytest.raises(SchemaError):
            read_image(str(path))

    def test_sixteen_bit_rejected(self, tmp_path):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(SchemaError):
            read_image(str(path))

    def test_truncated_pixels(self, tmp_path):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P5\n2 2\n255\n\x00")
        with pytest.raises(SchemaError):
            read_image(str(path))

    @pytest.mark.parametrize("dims", [b"-2 -2", b"-2 3", b"0 4", b"2 0"])
    def test_nonpositive_dimensions_rejected(self, tmp_path, dims):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P5\n" + dims + b"\n255\n" + bytes(4))
        with pytest.raises(SchemaError, match="^header: image dimensions must be positive"):
            read_image(str(path))

    def test_cli_rejects_negative_dimensions_without_traceback(self, tmp_path, capsys):
        net_path = tmp_path / "net.json"
        net_path.write_text(save_network(random_network(4, (3,), 2, "relu", seed=0)))
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P5\n-2 -2\n255\n" + bytes(4))
        code = main([
            "explain", "--network", str(net_path), "--input", str(path),
            "--epsilon", "0.1", "--out", str(tmp_path / "out"),
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: header: image dimensions must be positive")


class TestInstanceLoading:
    def test_csv_roundtrip(self, tmp_path):
        vec = np.array([0.25, 0.5, 1.0, 0.125])
        path = tmp_path / "x.csv"
        save_instance_csv(str(path), vec)
        loaded, shape = load_instance(str(path))
        np.testing.assert_array_equal(loaded, vec)
        assert shape is None

    def test_image_instances_flatten_with_shape(self, tmp_path):
        img = np.zeros((4, 4), dtype=np.uint8)
        path = tmp_path / "x.pgm"
        write_image(str(path), img)
        vec, shape = load_instance(str(path))
        assert vec.shape == (16,)
        assert shape == (4, 4)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("1.0,abc,3.0\n")
        with pytest.raises(SchemaError):
            load_instance(str(path))

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("\n")
        with pytest.raises(SchemaError):
            load_instance(str(path))
